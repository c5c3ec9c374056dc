package check

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// ObstructionFreeReport summarizes a bounded obstruction-freedom
// verification.
type ObstructionFreeReport struct {
	// Configurations is the number of distinct reachable configurations
	// from which solo runs were verified.
	Configurations int
	// SoloRuns is the total number of solo executions performed.
	SoloRuns int
	// MaxSoloSteps is the longest solo run observed.
	MaxSoloSteps int
	// Complete reports whether the reachable space was exhausted within
	// the limits (if false, obstruction-freedom was verified on a
	// BFS-prefix of the space only).
	Complete bool
}

// CheckObstructionFree verifies the definition of obstruction-freedom
// directly on the explored configuration space: for every reachable
// configuration C (BFS from the given inputs, bounded by limits) and every
// undecided process p, the solo execution by p from C must decide within
// soloBound steps. For Algorithm 1, Lemma 8 promises soloBound = 8(n-k).
//
// The configuration spaces of obstruction-free protocols are typically
// infinite (lap counters grow unboundedly under adversarial schedules),
// so exhaustion is not expected; the report says how much was covered.
func CheckObstructionFree(p model.Protocol, inputs []int, limits ExploreLimits, soloBound int) (*ObstructionFreeReport, error) {
	return CheckObstructionFreeOpts(p, inputs, ExploreOptions{Limits: limits}, soloBound)
}

// CheckObstructionFreeOpts is CheckObstructionFree with explicit engine
// options. The solo runs from distinct configurations are independent, so
// they parallelize across the engine's workers for free.
//
// A violation does not abort mid-level: the whole level finishes so that
// the report's counts stay deterministic, and among all violations found
// at that level the deterministically smallest (by configuration
// fingerprint, then exact key where the run has one, then pid) is
// reported — identical for every worker count.
func CheckObstructionFreeOpts(p model.Protocol, inputs []int, opts ExploreOptions, soloBound int) (*ObstructionFreeReport, error) {
	if soloBound <= 0 {
		return nil, fmt.Errorf("check: solo bound %d must be positive", soloBound)
	}
	// The obstruction verdict quantifies over solo runs from every
	// reachable configuration. Symmetry maps orbits to orbits (a solo run
	// by pid from C mirrors the run by π(pid) from π(C), step for step),
	// so quotienting is sound.
	start, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, err
	}
	all := make([]int, p.NumProcesses())
	for i := range all {
		all[i] = i
	}

	// violation is the smallest failing (configuration, pid) pair seen.
	type violation struct {
		fp    uint64
		key   string // "" unless the run uses exact keys
		pid   int
		depth int
		err   error
	}
	var (
		mu                     sync.Mutex
		failed                 *violation
		soloRuns, maxSoloSteps atomic.Int64
	)
	// Solo runs mutate a scratch configuration refreshed from each visited
	// node; the scratches are pooled so the inner loop — one run per
	// (configuration, undecided process) pair, by far the dominant cost —
	// allocates neither configurations nor step records (SoloSteps counts
	// without recording).
	scratchPool := sync.Pool{New: func() any {
		return &model.Config{
			Objects: make([]model.Value, len(p.Objects())),
			States:  make([]model.State, p.NumProcesses()),
		}
	}}
	visit := func(_ int, n *Node) error {
		solo := scratchPool.Get().(*model.Config)
		defer scratchPool.Put(solo)
		for pid := range n.Cfg.States {
			if _, decided := n.Cfg.Decided(p, pid); decided {
				continue
			}
			solo.CopyFrom(n.Cfg)
			steps, err := SoloSteps(p, solo, pid, soloBound)
			if err != nil {
				mu.Lock()
				if failed == nil || n.fp < failed.fp || (n.fp == failed.fp &&
					(n.key < failed.key || (n.key == failed.key && pid < failed.pid))) {
					failed = &violation{fp: n.fp, key: n.key, pid: pid, depth: n.Depth, err: err}
				}
				mu.Unlock()
				continue
			}
			soloRuns.Add(1)
			for {
				old := maxSoloSteps.Load()
				if int64(steps) <= old || maxSoloSteps.CompareAndSwap(old, int64(steps)) {
					break
				}
			}
		}
		return nil
	}
	afterLevel := func(_, _ int) bool {
		mu.Lock()
		defer mu.Unlock()
		return failed != nil
	}

	stats, err := RunFrontier(p, start, all, opts.Limits, opts.Engine, visit, afterLevel)
	report := &ObstructionFreeReport{
		Configurations: stats.Processed,
		SoloRuns:       int(soloRuns.Load()),
		MaxSoloSteps:   int(maxSoloSteps.Load()),
		Complete:       stats.Complete,
	}
	if err != nil {
		return report, err
	}
	if failed != nil {
		return report, fmt.Errorf(
			"check: obstruction-freedom violated: p%d does not decide within %d solo steps from a configuration at depth %d: %w",
			failed.pid, soloBound, failed.depth, failed.err)
	}
	return report, nil
}
