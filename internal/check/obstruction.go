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
// It is a class search (SearchClasses) with one class, "an undecided
// process is stuck", that stops at the first level holding one: the
// whole level finishes so that the report's counts stay deterministic,
// and the violation reported is the class's witness (by depth,
// fingerprint, then Config.Key) with its smallest stuck pid — identical
// for every worker count. A snapshot could not carry the violation, so
// Checkpoint is rejected.
func CheckObstructionFreeOpts(p model.Protocol, inputs []int, opts ExploreOptions, soloBound int) (*ObstructionFreeReport, error) {
	if soloBound <= 0 {
		return nil, fmt.Errorf("check: solo bound %d must be positive", soloBound)
	}
	if opts.Engine.Checkpoint != "" {
		return nil, fmt.Errorf("check: obstruction-freedom: %w: checkpointing is not supported (a snapshot does not keep the violation found)", ErrIncompatibleModes)
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

	var soloRuns, maxSoloSteps atomic.Int64
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
	// firstStuck runs every undecided process of cfg solo and returns the
	// smallest one that does not decide within soloBound steps, with the
	// run's error (-1 if none); count adds the runs that decide to the
	// report.
	firstStuck := func(cfg *model.Config, count bool) (stuck int, stuckErr error) {
		solo := scratchPool.Get().(*model.Config)
		defer scratchPool.Put(solo)
		stuck = -1
		for pid := range cfg.States {
			if _, decided := cfg.Decided(p, pid); decided {
				continue
			}
			solo.CopyFrom(cfg)
			steps, err := SoloSteps(p, solo, pid, soloBound)
			if err != nil {
				if stuck < 0 {
					stuck, stuckErr = pid, err
				}
				continue
			}
			if count {
				soloRuns.Add(1)
				storeMax(&maxSoloSteps, steps)
			}
		}
		return stuck, stuckErr
	}
	found, stats, err := SearchClasses(p, start, all, opts, 1, func(v *View, classes []int) ([]int, error) {
		if stuck, _ := firstStuck(v.Config(), true); stuck >= 0 {
			classes = append(classes, 0)
		}
		return classes, nil
	})
	report := &ObstructionFreeReport{
		Configurations: stats.Processed,
		SoloRuns:       int(soloRuns.Load()),
		MaxSoloSteps:   int(maxSoloSteps.Load()),
		Complete:       stats.Complete,
	}
	if err != nil {
		return report, err
	}
	if w := found[0]; w != nil {
		stuck, stuckErr := firstStuck(w.Cfg, false)
		return report, fmt.Errorf(
			"check: obstruction-freedom violated: p%d does not decide within %d solo steps from a configuration at depth %d: %w",
			stuck, soloBound, w.Depth, stuckErr)
	}
	return report, nil
}
