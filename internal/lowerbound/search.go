package lowerbound

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/check"
	"repro/internal/model"
)

// SearchLimits bounds the searches of this package and carries the
// frontier-engine knobs through to them.
type SearchLimits struct {
	// Ctx, when non-nil, cancels the underlying engine run in-process
	// (the search returns the context error). Nil means uncancellable,
	// as every search ran before the serving layer existed.
	Ctx context.Context
	// MaxConfigs caps distinct configurations visited (default 300000).
	MaxConfigs int
	// MaxDepth caps schedule length (0 = until MaxConfigs).
	MaxDepth int
	// Workers is the engine worker count (default all cores). Search
	// results, including witness schedules, do not depend on it.
	Workers int
	// Fingerprints switches deduplication, and the engine's transition
	// memos with it, from exact encodings to 64-bit incremental slot
	// fingerprints: leaner (an 8-byte visited entry instead of the whole
	// key) and faster, but a hash collision could silently prune a
	// witness or substitute a wrong transition, so certificate searches
	// default to exact.
	Fingerprints bool
	// Store sets the engine's state-store budget ("", "mem" or
	// "spill"). "spill" bounds the store's resident memory by MemBudget:
	// the frontier is spooled to disk, each node's provenance path in its
	// record, and dedup entries spill to sorted runs.
	Store string
	// MemBudget is the spill store's resident-byte budget
	// (0 = check.DefaultMemBudget).
	MemBudget int64
	// Progress, if non-nil, receives per-level engine throughput (the
	// CLIs stream it to stderr so stdout stays parseable).
	Progress func(check.Progress)
}

func (l SearchLimits) withDefaults() SearchLimits {
	if l.MaxConfigs <= 0 {
		l.MaxConfigs = 300000
	}
	return l
}

// engineOptions translates the limits into frontier-engine options. There
// is no reduction or order to pass: every search here reads a replayable
// schedule off a node's provenance path, which a reduction merges (orbit
// members share a visited entry) and the async order cannot settle (it
// has no level barrier), so the engine rejects either together with
// Provenance (check.ModeConflicts), and the callers that parse them
// (harness.EngineFlags.SearchLimits) validate with provenance first.
func (l SearchLimits) engineOptions() (check.ExploreLimits, check.EngineOptions) {
	l = l.withDefaults()
	return check.ExploreLimits{MaxConfigs: l.MaxConfigs, MaxDepth: l.MaxDepth},
		check.EngineOptions{Ctx: l.Ctx, Workers: l.Workers, StringKeys: !l.Fingerprints,
			Store: l.Store, MemBudget: l.MemBudget,
			// A witness is a node's provenance path, copied at its visit.
			Provenance: true, Progress: l.Progress}
}

// Witness is a found schedule together with what it demonstrates.
type Witness struct {
	// Schedule is the pid sequence from the initial configuration.
	Schedule []int
	// Decided is the set of values decided at the end, ascending.
	Decided []int
	// Visited is the number of configurations explored to find it.
	Visited int
}

// FindAgreementViolation searches P-only executions of p from the given
// inputs for a configuration in which more than k distinct values are
// decided, returning a replayable witness schedule or nil if none exists
// within the limits. It demonstrates constructively why under-provisioned
// protocols fail — e.g. the 2-process single-swap consensus run with three
// processes (Section 1's motivation for needing more objects).
func FindAgreementViolation(p model.Protocol, inputs []int, k int, limits SearchLimits) (*Witness, error) {
	w, _, err := searchDecisions(p, inputs, nil, limits, func(distinct int) bool { return distinct > k })
	return w, err
}

// FindKDistinctDecisions searches for an execution by the processes in
// restrict (nil = all) in which at least k distinct values are decided —
// the "R-only execution in which all k values are decided" case of
// Theorem 10's induction. Returns nil if none is found within limits.
func FindKDistinctDecisions(p model.Protocol, inputs []int, restrict []int, k int, limits SearchLimits) (*Witness, error) {
	w, _, err := searchDecisions(p, inputs, restrict, limits, func(distinct int) bool { return distinct >= k })
	return w, err
}

// searchDecisions is the provenance search for a configuration whose
// number of distinct decided values satisfies goal: every goal node is
// class 0, and the run stops at the first level holding one. complete
// is false when the limits cut the search short of a witness.
func searchDecisions(p model.Protocol, inputs []int, restrict []int, limits SearchLimits, goal func(distinct int) bool) (w *Witness, complete bool, err error) {
	start, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, false, err
	}
	if restrict == nil {
		restrict = allPids(p)
	}
	found, stats, err := provenance(p, start, restrict, limits, 1, func(cfg *model.Config, classes []int) ([]int, error) {
		// The distinct decided values (a k-set protocol decides at most
		// k+1 of them) are collected on the stack.
		var buf [8]int
		dec := buf[:0]
		for pid := range cfg.States {
			if v, ok := cfg.Decided(p, pid); ok && !slices.Contains(dec, v) {
				dec = append(dec, v)
			}
		}
		if goal(len(dec)) {
			classes = append(classes, 0)
		}
		return classes, nil
	})
	best, ok := found[0]
	if err != nil || !ok {
		return nil, stats.Complete, err // no witness: the space or the budget ran out
	}
	return &Witness{Schedule: best.schedule, Decided: best.end.DecidedValues(p), Visited: stats.Processed}, true, nil
}

// classBest is the smallest node of a provenance class: its schedule
// from the search's start, and the configuration that schedule ends in.
type classBest struct {
	schedule []int
	end      *model.Config
}

// provenance is the search behind every schedule this package returns:
// a breadth-first walk of the pids-only space from start on
// check.RunFrontier, with provenance paths. classify, run concurrently
// on the engine's workers, appends the int classes (zero or more) of
// each visited configuration to its second argument; for each class the
// search keeps the smallest node by (depth, fingerprint, key), so what
// it returns depends neither on the worker count nor on the store. At
// every level barrier the run stops once stopAt classes are met (0:
// never). found maps each class met to its smallest node.
func provenance(p model.Protocol, start *model.Config, pids []int, limits SearchLimits, stopAt int,
	classify func(cfg *model.Config, classes []int) ([]int, error),
) (found map[int]classBest, stats check.RunStats, err error) {
	type best struct {
		depth int
		fp    uint64
		path  []byte
	}
	var (
		mu                sync.Mutex
		bests             = map[int]best{}
		exLimits, engOpts = limits.engineOptions()
	)
	visit := func(_ int, n *check.Node) error {
		var buf [4]int
		classes, err := classify(n.Cfg, buf[:0])
		if err != nil || len(classes) == 0 {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, c := range classes {
			b, ok := bests[c]
			if ok && (b.depth < n.Depth || b.depth == n.Depth && b.fp < n.Fingerprint()) {
				continue
			}
			if ok && b.depth == n.Depth && b.fp == n.Fingerprint() {
				// Only exact keys admit two configurations with one
				// fingerprint; the key decides, the incumbent's replayed.
				old, err := model.Replay(p, start, b.path)
				if err != nil {
					return err
				}
				if old.Key() < n.Cfg.Key() {
					continue
				}
			}
			bests[c] = best{n.Depth, n.Fingerprint(), slices.Clone(n.Path())}
		}
		return nil
	}
	afterLevel := func(_, _ int) bool {
		mu.Lock()
		defer mu.Unlock()
		return stopAt > 0 && len(bests) >= stopAt
	}
	if stats, err = check.RunFrontier(p, start, pids, exLimits, engOpts, visit, afterLevel); err != nil {
		return nil, stats, fmt.Errorf("lowerbound: search: %w", err)
	}
	found = make(map[int]classBest, len(bests))
	for c, b := range bests {
		end, err := model.Replay(p, start, b.path)
		if err != nil {
			return nil, stats, err
		}
		var schedule []int
		for _, pid := range b.path {
			schedule = append(schedule, int(pid))
		}
		found[c] = classBest{schedule, end}
	}
	return found, stats, nil
}

// allPids returns 0..n-1 for p's n processes.
func allPids(p model.Protocol) []int {
	pids := make([]int, p.NumProcesses())
	for i := range pids {
		pids[i] = i
	}
	return pids
}

// Theorem10Step records one level of the Theorem 10 induction.
type Theorem10Step struct {
	// K is the agreement parameter at this level.
	K int
	// Processes is the process set P at this level.
	Processes []int
	// RSize is |R| = ⌈|P|(k-1)/k⌉ at this level (0 at the base case).
	RSize int
	// FoundKValues reports whether an R-only execution deciding k values
	// was found (Lemma 9 branch) or not (recursion branch).
	FoundKValues bool
	// Complete reports whether the level's search is conclusive: a
	// witness was found or the R-only space was exhausted. A recursion
	// on an incomplete search rests on the budget, not on the proof.
	// The base case runs no search and is complete.
	Complete bool
}

// Theorem10Certificate is the outcome of the full Theorem 10 induction.
type Theorem10Certificate struct {
	// Objects is the number of distinct swap objects certified.
	Objects int
	// Bound is ⌈n/k⌉ - 1 for the original instance.
	Bound int
	// Steps traces the induction levels.
	Steps []Theorem10Step
	// Lemma9 is the base/branch certificate that terminated the
	// induction.
	Lemma9 *Lemma9Result
}

// Theorem10Driver runs the induction from the proof of Theorem 10 against
// a protocol family: factory(n, k) must return an n-process (k+1)-valued
// k-set agreement protocol on swap objects over the same object layout for
// every level (the paper analyses one algorithm; levels restrict which
// processes take steps, which the model realizes by quieting processes).
//
// At each level it searches for an R-only execution deciding k distinct
// values; if found it invokes Lemma 9 with Q = P - R, otherwise it recurses
// on (R, k-1) as the proof does. The returned certificate's Objects is
// guaranteed >= ⌈n/k⌉ - 1 on success.
func Theorem10Driver(p model.Protocol, k int, limits SearchLimits, soloBound int) (*Theorem10Certificate, error) {
	n := p.NumProcesses()
	if k < 1 || n <= k {
		return nil, fmt.Errorf("lowerbound: theorem 10 needs n > k >= 1, got n=%d k=%d", n, k)
	}
	cert := &Theorem10Certificate{Bound: Theorem10Bound(n, k)}

	processes := make([]int, n)
	for i := range processes {
		processes[i] = i
	}
	level := k
	for {
		if level == 1 {
			// Base case: the first process of the current set runs solo
			// with input 0; the rest of the FULL process set is not
			// available as Q — only the current level's quiet processes
			// count. Mirror the proof: Q is everyone (of the original P)
			// except the solo runner restricted to the current set.
			res, err := consensusBase(p, processes, soloBound)
			if err != nil {
				return nil, err
			}
			cert.Lemma9 = res
			cert.Objects = len(res.Objects)
			cert.Steps = append(cert.Steps, Theorem10Step{K: 1, Processes: processes, Complete: true})
			return cert, nil
		}
		rSize := ceilDiv(len(processes)*(level-1), level)
		r := processes[:rSize]
		rest := processes[rSize:]

		// Look for an R-only execution deciding `level` distinct values.
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = level // Q's input v = k (differs from 0..k-1)
		}
		for i, pid := range r {
			inputs[pid] = i % level
		}
		w, complete, err := searchDecisions(p, inputs, r, limits, func(distinct int) bool { return distinct >= level })
		if err != nil {
			return nil, err
		}
		step := Theorem10Step{K: level, Processes: processes, RSize: rSize, FoundKValues: w != nil, Complete: complete}
		cert.Steps = append(cert.Steps, step)
		if w != nil {
			res, err := Lemma9(Lemma9Input{
				Protocol:  p,
				Inputs:    inputs,
				Alpha:     w.Schedule,
				Q:         rest,
				V:         level,
				SoloBound: soloBound,
			})
			if err != nil {
				return nil, err
			}
			cert.Lemma9 = res
			cert.Objects = len(res.Objects)
			return cert, nil
		}
		// Recurse: the algorithm solves (level-1)-set agreement among R.
		processes = r
		level--
	}
}
