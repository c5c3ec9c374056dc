package check

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestClassSearchMaterialisesOnOffers: a class search whose classifier
// reads only View.Decided builds a configuration for an offer that wins a
// class or ties its witness, and for nothing else — not one per visited
// node. The search runs at one worker, so a RunFrontier run of the same
// instance with the same class table rule replays it node for node and
// counts the offers that win or tie; the search's materialisations may
// not exceed that count. Under degenerate slot hashes every node of a
// level shares its fingerprint, so ties are the rule and each one
// compares keys; the decided values must match the real-hash run's.
func TestClassSearchMaterialisesOnOffers(t *testing.T) {
	p := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	start := model.MustNewConfig(p, []int{0, 1, 1})
	pids := []int{0, 1, 2}
	opts := ExploreOptions{Limits: ExploreLimits{MaxConfigs: 20000},
		Engine: EngineOptions{Workers: 1, StringKeys: true, Provenance: true}}
	classify := func(v *View, classes []int) ([]int, error) {
		for pid := range pids {
			if val, ok := v.Decided(pid); ok && !slices.Contains(classes, val) {
				classes = append(classes, val)
			}
		}
		return classes, nil
	}
	var decided [2][]int
	for d, degenerate := range []bool{false, true} {
		t.Run(fmt.Sprintf("degenerate=%t", degenerate), func(t *testing.T) {
			model.SetDegenerateSlotHashes(degenerate)
			defer model.SetDegenerateSlotHashes(false)

			materialised := 0
			materialiseHook = func() { materialised++ }
			found, stats, err := SearchClasses(p, start, pids, opts, 0, classify)
			materialiseHook = nil
			if err != nil {
				t.Fatal(err)
			}
			for c := range found {
				decided[d] = append(decided[d], c)
			}
			slices.Sort(decided[d])

			// The same search by hand: an offer wins or ties where its
			// (depth, fingerprint) does not follow a class's witness.
			tab, winsOrTies := newClassTable(), 0
			_, err = RunFrontier(p, start, pids, opts.Limits, opts.Engine, func(_ int, n *Node, v *View) error {
				classes, _ := classify(v, nil)
				for _, c := range classes {
					if w, met := tab.best[c]; !met || WitnessCmp(n.Depth, n.fp, w.Depth, w.FP) <= 0 {
						winsOrTies++
						break
					}
				}
				if len(classes) > 0 {
					tab.offer(n.Depth, n.fp, v, n.path, classes)
				}
				return nil
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d visited, %d offers won or tied, %d configurations materialised", stats.Processed, winsOrTies, materialised)
			if materialised == 0 || materialised > winsOrTies {
				t.Fatalf("%d configurations materialised, want between 1 and the %d offers that won or tied a class", materialised, winsOrTies)
			}
			if !degenerate && 10*materialised > stats.Processed {
				t.Fatalf("%d configurations materialised over %d visited nodes: the classifier's decisions were not read from the dictionary", materialised, stats.Processed)
			}
		})
	}
	if !slices.Equal(decided[0], decided[1]) || len(decided[0]) != 2 {
		t.Fatalf("decided values %v under real hashes, %v under degenerate ones; want [0 1] both", decided[0], decided[1])
	}
}
