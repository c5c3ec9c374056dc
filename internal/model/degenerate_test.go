package model_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/model"
)

// TestDegenerateHashExactRuns is the proof that exact-key runs rest no
// decision on a hash: with every slot content hash forced equal — so
// every configuration has the same fingerprint, lands in one partition
// and one bucket of every hash-indexed table — a StringKeys exploration
// and a certificate search must still visit the same number of
// configurations, report the same decided values and find a witness of
// the same length as under real hashes, and the degenerate runs must
// report one witness schedule at every worker count on both stores. (Which
// of several equally short witnesses is reported is a (fingerprint, key)
// tie-break, so real hashes legitimately pick another one; with all
// fingerprints equal it is the one degenerateWitness derives from the
// keys alone.) The last cell holds the obstruction check's choice of
// which failure to report to the same standard.
func TestDegenerateHashExactRuns(t *testing.T) {
	toybit, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	instances := []struct {
		p      model.Protocol
		inputs []int
		k      int // distinct decisions FindKDistinctDecisions hunts for
		// depth caps the exploration where the space is unbounded, so that
		// it is exhaustive within the cap: a budget cut would keep the
		// (fingerprint, key)-smallest, another set under other hashes.
		depth int
	}{
		{baseline.NewPairConsensus(2).WithProcesses(3), []int{0, 1, 1}, 2, 0},
		{toybit, []int{1, 0, 0}, 2, 8},
		{core.MustNew(core.Params{N: 3, K: 2, M: 3}), []int{0, 1, 2}, 2, 7},
	}

	type outcome struct {
		explored *check.ExploreResult
		witness  *lowerbound.Witness
	}
	for _, in := range instances {
		start := model.MustNewConfig(in.p, in.inputs)
		var pids []int
		for pid := 0; pid < in.p.NumProcesses(); pid++ {
			pids = append(pids, pid)
		}
		run := func(workers int, store string) outcome {
			t.Helper()
			eng := check.EngineOptions{StringKeys: true, Workers: workers, Store: store}
			limits := lowerbound.SearchLimits{Workers: workers, Store: store}
			if store == check.StoreSpill {
				eng.MemBudget, limits.MemBudget = 1<<12, 1<<12 // tiny: force real spilling
			}
			res, err := check.ExploreOpts(in.p, start, pids, in.k-1, check.ExploreOptions{
				Limits: check.ExploreLimits{MaxDepth: in.depth}, Engine: eng})
			if err != nil {
				t.Fatalf("%s w%d %s: explore: %v", in.p.Name(), workers, store, err)
			}
			w, err := lowerbound.FindKDistinctDecisions(in.p, in.inputs, nil, in.k, limits)
			if err != nil {
				t.Fatalf("%s w%d %s: search: %v", in.p.Name(), workers, store, err)
			}
			return outcome{res, w}
		}
		// replays holds a witness to its claim: a real execution, ending
		// with the reported values decided, at least k of them.
		replays := func(name string, w *lowerbound.Witness) {
			t.Helper()
			c := start.Clone()
			for i, pid := range w.Schedule {
				if _, err := model.Apply(in.p, c, pid); err != nil {
					t.Fatalf("%s: witness step %d (p%d): %v", name, i, pid, err)
				}
			}
			if got := c.DecidedValues(in.p); !reflect.DeepEqual(got, w.Decided) || len(got) < in.k {
				t.Errorf("%s: witness replays to %v decided, claims %v, wants %d values", name, got, w.Decided, in.k)
			}
		}

		want := degenerateWitness(t, in.p, start, pids, in.k)
		normal := run(1, check.StoreMem)
		if normal.witness == nil {
			t.Fatalf("%s: no witness under real hashes; the instance tests nothing", in.p.Name())
		}

		func() {
			model.SetDegenerateSlotHashes(true)
			defer model.SetDegenerateSlotHashes(false)
			succ := start.Clone()
			if _, err := model.Apply(in.p, succ, pids[0]); err != nil {
				t.Fatal(err)
			}
			if succ.SlotFingerprint() != start.SlotFingerprint() {
				t.Fatal("the seam is off: two configurations still have different fingerprints")
			}
			for _, store := range []string{check.StoreMem, check.StoreSpill} {
				for _, workers := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/w%d", in.p.Name(), store, workers)
					got := run(workers, store)
					if got.explored.Visited != normal.explored.Visited || got.explored.Complete != normal.explored.Complete ||
						!reflect.DeepEqual(got.explored.DecidedValues, normal.explored.DecidedValues) {
						t.Errorf("%s: explored %d (complete %t) deciding %v; real hashes %d (complete %t) deciding %v", name,
							got.explored.Visited, got.explored.Complete, got.explored.DecidedValues,
							normal.explored.Visited, normal.explored.Complete, normal.explored.DecidedValues)
					}
					if got.witness == nil {
						t.Errorf("%s: no witness; real hashes found %v", name, normal.witness.Schedule)
						continue
					}
					replays(name, got.witness)
					if got.witness.Visited != normal.witness.Visited || len(got.witness.Schedule) != len(normal.witness.Schedule) {
						t.Errorf("%s: witness of %d steps after %d configurations; real hashes %d steps after %d", name,
							len(got.witness.Schedule), got.witness.Visited, len(normal.witness.Schedule), normal.witness.Visited)
					}
					if !reflect.DeepEqual(got.witness.Schedule, want) {
						t.Errorf("%s: witness %v; with no hash to break ties it is %v", name, got.witness.Schedule, want)
					}
				}
			}
		}()
	}

	// The obstruction cell. Under a solo bound the instance cannot meet,
	// the check fails at the first level holding a stuck (configuration,
	// pid) pair and reports the smallest; exact-key runs order those by
	// (fingerprint, key, pid), so with every fingerprint equal the report
	// is the pair degenerateStuck derives from the keys alone — in this
	// instance not the level's smallest stuck pid, which is what ordering
	// by fingerprint alone reports.
	const soloBound = 4
	obsInputs := []int{0, 1, 0}
	pid, depth, smallestPid := degenerateStuck(t, toybit, model.MustNewConfig(toybit, obsInputs), soloBound)
	if pid == smallestPid {
		t.Fatalf("the smallest stuck key also holds the smallest stuck pid %d; the instance tests nothing", pid)
	}
	want := fmt.Sprintf("p%d does not decide within %d solo steps from a configuration at depth %d:", pid, soloBound, depth)
	model.SetDegenerateSlotHashes(true)
	defer model.SetDegenerateSlotHashes(false)
	for _, store := range []string{check.StoreMem, check.StoreSpill} {
		for _, workers := range []int{1, 2, 4} {
			eng := check.EngineOptions{StringKeys: true, Workers: workers, Store: store}
			if store == check.StoreSpill {
				eng.MemBudget = 1 << 12
			}
			_, err := check.CheckObstructionFreeOpts(toybit, obsInputs, check.ExploreOptions{Engine: eng}, soloBound)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("obstruction %s/w%d: err = %v, want %q", store, workers, err, want)
			}
		}
	}
}

// degenerateStuck derives from first principles what an obstruction check
// under soloBound must report when fingerprints carry no information:
// breadth-first by levels, the first level holding a process that does
// not decide solo within the bound from one of its configurations, and
// there the smallest (configuration encoding, pid). smallestPid is the
// smallest stuck pid anywhere in that level.
func degenerateStuck(t *testing.T, p model.Protocol, start *model.Config, soloBound int) (pid, depth, smallestPid int) {
	t.Helper()
	level := map[string]*model.Config{string(start.AppendEncoding(nil)): start}
	seen := map[string]bool{}
	for ; len(level) > 0 && len(seen) < 100000; depth++ {
		encs := make([]string, 0, len(level))
		for enc := range level {
			encs = append(encs, enc)
			seen[enc] = true
		}
		sort.Strings(encs)
		pid, smallestPid = -1, -1
		next := map[string]*model.Config{}
		for _, enc := range encs {
			for q := range level[enc].States {
				if _, decided := level[enc].Decided(p, q); decided {
					continue
				}
				if _, err := check.SoloSteps(p, level[enc].Clone(), q, soloBound); err != nil {
					if pid < 0 {
						pid = q
					}
					if smallestPid < 0 || q < smallestPid {
						smallestPid = q
					}
				}
				c := level[enc].Clone()
				if _, err := model.Apply(p, c, q); err != nil {
					t.Fatal(err)
				}
				if e := string(c.AppendEncoding(nil)); !seen[e] && level[e] == nil {
					next[e] = c
				}
			}
		}
		if pid >= 0 {
			return pid, depth, smallestPid
		}
		level = next
	}
	t.Fatalf("%s: every solo run within the reference search's budget decides in %d steps", p.Name(), soloBound)
	return 0, 0, 0
}

// degenerateWitness derives from first principles the schedule a search
// for k distinct decisions must report when fingerprints carry no
// information: breadth-first by levels; a configuration reached more than
// once in the level that first reaches it keeps the smallest (parent's
// encoding, pid); and of the goal configurations in the first level that
// has one, the smallest Config.Key is reported.
func degenerateWitness(t *testing.T, p model.Protocol, start *model.Config, pids []int, k int) []int {
	t.Helper()
	type node struct {
		cfg    *model.Config
		enc    string
		parent *node
		pid    int
	}
	root := &node{cfg: start, enc: string(start.AppendEncoding(nil))}
	seen := map[string]bool{root.enc: true}
	for level := []*node{root}; len(level) > 0 && len(seen) < 100000; {
		var best *node
		for _, n := range level {
			if len(n.cfg.DecidedValues(p)) >= k && (best == nil || n.cfg.Key() < best.cfg.Key()) {
				best = n
			}
		}
		if best != nil {
			var schedule []int
			for n := best; n.parent != nil; n = n.parent {
				schedule = append([]int{n.pid}, schedule...)
			}
			return schedule
		}
		next := map[string]*node{}
		for _, n := range level {
			for _, pid := range pids {
				if _, decided := n.cfg.Decided(p, pid); decided {
					continue
				}
				c := n.cfg.Clone()
				if _, err := model.Apply(p, c, pid); err != nil {
					t.Fatal(err)
				}
				enc := string(c.AppendEncoding(nil))
				if seen[enc] {
					if prev := next[enc]; prev != nil && (n.enc < prev.parent.enc || (n.enc == prev.parent.enc && pid < prev.pid)) {
						prev.parent, prev.pid = n, pid
					}
					continue
				}
				seen[enc] = true
				next[enc] = &node{cfg: c, enc: enc, parent: n, pid: pid}
			}
		}
		level = level[:0]
		for _, n := range next {
			level = append(level, n)
		}
	}
	t.Fatalf("%s: no %d distinct decisions within the reference search's budget", p.Name(), k)
	return nil
}
