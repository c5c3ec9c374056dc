package lowerbound

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/check"
	"repro/internal/model"
)

// SearchLimits bounds the schedule searches in this file and carries the
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
	return searchDecisions(p, inputs, nil, limits, func(distinct int) bool { return distinct > k })
}

// FindKDistinctDecisions searches for an execution by the processes in
// restrict (nil = all) in which at least k distinct values are decided —
// the "R-only execution in which all k values are decided" case of
// Theorem 10's induction. Returns nil if none is found within limits.
func FindKDistinctDecisions(p model.Protocol, inputs []int, restrict []int, k int, limits SearchLimits) (*Witness, error) {
	return searchDecisions(p, inputs, restrict, limits, func(distinct int) bool { return distinct >= k })
}

// searchDecisions is a breadth-first search over schedules with
// provenance paths, stopping at a configuration whose number of distinct decided
// values satisfies goal. It runs on the check package's sharded frontier
// engine: goal configurations are detected during parallel level
// processing, the run stops at the first level containing one, and the
// reported witness is the deterministically smallest goal node of that
// level (by fingerprint, then key), so the schedule does not depend on
// worker count or interleaving.
func searchDecisions(p model.Protocol, inputs []int, restrict []int, limits SearchLimits, goal func(distinct int) bool) (*Witness, error) {
	start, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, err
	}
	pids := restrict
	if pids == nil {
		pids = make([]int, p.NumProcesses())
		for i := range pids {
			pids[i] = i
		}
	}

	var (
		mu                sync.Mutex
		best              *Witness // nil until a goal is visited
		bestFP            uint64
		bestKey           string
		exLimits, engOpts = limits.engineOptions()
	)
	visit := func(_ int, n *check.Node) error {
		// Runs once per visited node: the distinct decided values (a k-set
		// protocol decides at most k+1 of them) are collected on the stack.
		var buf [8]int
		dec := buf[:0]
		for pid := range n.Cfg.States {
			if v, ok := n.Cfg.Decided(p, pid); ok && !slices.Contains(dec, v) {
				dec = append(dec, v)
			}
		}
		if !goal(len(dec)) {
			return nil
		}
		key := n.Cfg.Key()
		mu.Lock()
		// Goal nodes all sit in the first level containing one (the run
		// stops at its barrier), so depth never differs here.
		if best == nil || n.Fingerprint() < bestFP || (n.Fingerprint() == bestFP && key < bestKey) {
			best = &Witness{Schedule: n.Schedule(), Decided: slices.Sorted(slices.Values(dec))}
			bestFP, bestKey = n.Fingerprint(), key
		}
		mu.Unlock()
		return nil
	}
	afterLevel := func(_, _ int) bool {
		mu.Lock()
		defer mu.Unlock()
		return best != nil
	}

	stats, err := check.RunFrontier(p, start, pids, exLimits, engOpts, visit, afterLevel)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: search: %w", err)
	}
	if best == nil {
		return nil, nil // space or budget exhausted, no witness
	}
	best.Visited = stats.Processed
	return best, nil
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
			cert.Steps = append(cert.Steps, Theorem10Step{K: 1, Processes: processes})
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
		w, err := FindKDistinctDecisions(p, inputs, r, level, limits)
		if err != nil {
			return nil, err
		}
		step := Theorem10Step{K: level, Processes: processes, RSize: rSize, FoundKValues: w != nil}
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

// consensusBase is the k = 1 base case of the induction restricted to a
// subset of processes: processes[0] runs solo with input 0, the remaining
// members of the subset form Q with input 1.
func consensusBase(p model.Protocol, processes []int, soloBound int) (*Lemma9Result, error) {
	n := p.NumProcesses()
	if soloBound <= 0 {
		soloBound = 10 * n * (len(p.Objects()) + 1)
	}
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = 1
	}
	solo := processes[0]
	inputs[solo] = 0

	c, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, err
	}
	var alpha []int
	for step := 0; ; step++ {
		if step > soloBound {
			return nil, fmt.Errorf("lowerbound: base case: p%d exceeded solo bound", solo)
		}
		if _, ok := c.Decided(p, solo); ok {
			break
		}
		if _, err := model.Apply(p, c, solo); err != nil {
			return nil, err
		}
		alpha = append(alpha, solo)
	}
	if v, _ := c.Decided(p, solo); v != 0 {
		return nil, fmt.Errorf("lowerbound: base case: p%d decided %d solo, want 0", solo, v)
	}
	q := make([]int, 0, len(processes)-1)
	for _, pid := range processes[1:] {
		q = append(q, pid)
	}
	return Lemma9(Lemma9Input{
		Protocol:  p,
		Inputs:    inputs,
		Alpha:     alpha,
		Q:         q,
		V:         1,
		SoloBound: soloBound,
	})
}
