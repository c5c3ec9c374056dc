package check

import (
	"cmp"
	"fmt"
	"sync"

	"repro/internal/model"
)

// This file is the one class search. Every positive fact the checkers
// report has the form "some P-only execution reaches a configuration of
// class X": an agreement violation, a decided value, a stuck solo run, a
// bivalence witness, a Lemma 13 γ, a covering. A classifier puts each
// visited configuration in zero or more int classes, and each class is
// represented by one witness, picked by one rule.

// Witness represents a class of a class search: its smallest visited
// node by (depth, fingerprint) — WitnessCmp — with a tie, which only
// exact keys admit (two configurations sharing a fingerprint), broken by
// the smaller Config.Key(). What a search returns therefore depends
// neither on the worker count nor on the store.
type Witness struct {
	// Depth and FP are the node's BFS depth and dedup fingerprint.
	Depth int
	FP    uint64
	// Cfg is a copy of the node's configuration.
	Cfg *model.Config
	// Path is the node's root-to-node pid path in a run that keeps paths
	// (nil otherwise); the search has replayed it to Cfg.
	Path []byte
}

// Schedule returns w's Path as pids.
func (w *Witness) Schedule() []int {
	var out []int
	for _, pid := range w.Path {
		out = append(out, int(pid))
	}
	return out
}

// WitnessCmp is the witness order: by depth, then fingerprint. It is 0
// only for two nodes of one depth sharing a fingerprint, which under
// exact keys can be two configurations; SearchClasses then compares
// their Config.Key(). A distributed run has no exact keys, so its merge
// picks by this order alone.
func WitnessCmp(aDepth int, aFP uint64, bDepth int, bFP uint64) int {
	if c := cmp.Compare(aDepth, bDepth); c != 0 {
		return c
	}
	return cmp.Compare(aFP, bFP)
}

// classTable is a class search's running result: each class met, with
// its witness so far.
type classTable struct {
	mu   sync.Mutex
	best map[int]*Witness
}

func newClassTable() *classTable { return &classTable{best: map[int]*Witness{}} }

// offer enters the configuration v, reached at depth by path with
// fingerprint fp, in each of classes where it precedes the class's
// witness. v's configuration is materialised only for an offer that wins
// a class or ties its witness (the tie-break compares keys), and it and
// path are copied.
func (t *classTable) offer(depth int, fp uint64, v *View, path []byte, classes []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var won *Witness // the witness, built once for all the classes it wins
	var key string   // cfg.Key(), computed at its first tie
	for _, c := range classes {
		if w, met := t.best[c]; met {
			switch WitnessCmp(depth, fp, w.Depth, w.FP) {
			case 1:
				continue
			case 0:
				if key == "" {
					key = v.Config().Key()
				}
				if key >= w.Cfg.Key() {
					continue
				}
			}
		}
		if won == nil {
			won = &Witness{Depth: depth, FP: fp, Cfg: v.Config().Clone(), Path: append([]byte(nil), path...)}
		}
		t.best[c] = won
	}
}

// SearchClasses is the class search: a breadth-first walk of the
// pids-only space of p from start on RunFrontier. classify, run
// concurrently on the engine's workers, appends the int classes (zero or
// more) of each visited configuration, read through its View, to its
// second argument; a classifier that reads only View.Decided has no
// configuration built for it, and the search builds one only for an
// offer that wins or ties a class. For each class met the search returns
// its Witness; at every level barrier it stops once stopAt classes are
// met (0: never). Callers that need witness paths set
// opts.Engine.Provenance themselves; in a run that keeps paths every
// witness's path is replayed at the end, and the search fails if it does
// not reach the witness's configuration.
func SearchClasses(p model.Protocol, start *model.Config, pids []int, opts ExploreOptions, stopAt int,
	classify func(v *View, classes []int) ([]int, error),
) (map[int]*Witness, RunStats, error) {
	return searchClasses(p, start, pids, opts, stopAt, classify, newClassTable())
}

// searchClasses is SearchClasses on a given table, which a checkpointing
// caller records and restores through its aux hooks.
func searchClasses(p model.Protocol, start *model.Config, pids []int, opts ExploreOptions, stopAt int,
	classify func(v *View, classes []int) ([]int, error), t *classTable,
) (map[int]*Witness, RunStats, error) {
	// One class buffer per worker: handed to an unknown function, a
	// buffer on the visit's stack would escape to the heap at every visit.
	bufs := make([][8]int, opts.Engine.withDefaults().Workers)
	visit := func(w int, n *Node, v *View) error {
		classes, err := classify(v, bufs[w][:0])
		if err == nil && len(classes) > 0 {
			t.offer(n.Depth, n.fp, v, n.path, classes)
		}
		return err
	}
	var afterLevel func(_, _ int) bool
	if stopAt > 0 {
		afterLevel = func(_, _ int) bool {
			t.mu.Lock()
			defer t.mu.Unlock()
			return len(t.best) >= stopAt
		}
	}
	stats, err := RunFrontier(p, start, pids, opts.Limits, opts.Engine, visit, afterLevel)
	if err != nil {
		return nil, stats, err
	}
	if opts.Engine.keepsPaths() {
		for c, w := range t.best {
			end, err := model.Replay(p, start, w.Path)
			if err != nil {
				return nil, stats, fmt.Errorf("check: replaying the witness of class %d: %w", c, err)
			}
			if end.Key() != w.Cfg.Key() {
				return nil, stats, fmt.Errorf("check: the witness path of class %d does not replay to its configuration", c)
			}
		}
	}
	return t.best, stats, nil
}
