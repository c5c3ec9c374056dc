package check

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/model"
)

// DefaultMaxConfigs is the configuration budget used when ExploreLimits
// leaves MaxConfigs unset.
const DefaultMaxConfigs = 200000

// ExploreLimits bounds an exhaustive exploration. Obstruction-free
// protocols typically have infinite configuration spaces (lap counters
// grow without bound under adversarial scheduling), so exploration is
// budgeted; results report whether the budget was exhausted.
type ExploreLimits struct {
	// MaxConfigs caps the number of distinct configurations visited
	// (<= 0 selects DefaultMaxConfigs). A run the cap ends visits exactly
	// MaxConfigs configurations and is marked incomplete. Once the cap is
	// spent no further configuration can be admitted, so the ones admitted
	// last — the level the budget cutoff kept, or whatever the async order
	// still had queued — are visited but not stepped: a protocol error
	// (an illegal poised operation, an undecided process that is not
	// poised) that only stepping one of them would hit is not reported.
	MaxConfigs int `json:"max_configs"`
	// MaxDepth caps the BFS depth: configurations at depth MaxDepth are
	// still visited but not expanded, and the result is marked
	// incomplete. <= 0 means unlimited depth (until MaxConfigs).
	MaxDepth int `json:"max_depth,omitempty"`
}

// WithDefaults returns l with its defaults filled in: the budget a run
// of l spends, which a distributed coordinator cuts at.
func (l ExploreLimits) WithDefaults() ExploreLimits {
	if l.MaxConfigs <= 0 {
		l.MaxConfigs = DefaultMaxConfigs
	}
	if l.MaxDepth < 0 {
		l.MaxDepth = 0 // normalize "negative = unlimited" to the documented zero
	}
	return l
}

// ExploreResult summarizes an exploration of the P-only reachable
// configuration space from a starting configuration.
type ExploreResult struct {
	// Visited is the number of distinct configurations visited.
	Visited int
	// Complete reports whether the entire P-only reachable space was
	// exhausted within the limits. Only a complete exploration proves
	// univalence; an incomplete one can still prove bivalence (it found
	// witnesses) or a violation.
	Complete bool
	// DecidedValues is the set of values decided by some process of P in
	// some visited configuration, ascending.
	DecidedValues []int
	// AgreementViolation, if non-nil, is a configuration whose decided
	// value set exceeds k (set only when a k was supplied). Among all
	// violating configurations visited it is the class search's witness
	// (minimum BFS depth, then fingerprint, then key: see Witness), so
	// parallel runs report the same witness as sequential ones.
	AgreementViolation *model.Config
	// ViolationDepth and ViolationFP identify the witness when
	// AgreementViolation is set: its BFS depth and dedup fingerprint (the
	// ordering key parallel runs agree on).
	ViolationDepth int
	ViolationFP    uint64
	// MaxDecidedTogether is the largest number of distinct values decided
	// within a single visited configuration.
	MaxDecidedTogether int
	// Store reports the state store's activity over the exploration
	// (kind: "mem" without a budget, "spill" under one; bytes spilled;
	// peak resident bytes).
	Store StoreStats
	// Reduction reports the state-space reduction layer's activity
	// (orbit folds); zero-valued on unreduced runs.
	Reduction ReductionStats
	// Async reports the exploration order that ran and, for async-order
	// runs, the work-stealing and quiescence-detection activity. The
	// Order field is always set ("levelsync" or "async").
	Async AsyncStats
	// Net reports a distributed run's wire activity (peer side: this
	// peer's link; coordinator side: the peers summed). Zero-valued for
	// single-process runs.
	Net NetStats
}

// ExploreOptions bundles the limits with the engine knobs for the
// options-taking explorer entry points.
type ExploreOptions struct {
	// Limits bounds the exploration.
	Limits ExploreLimits
	// Engine configures parallelism, visited-set keying, the
	// exploration order, reduction and the state store's budget.
	Engine EngineOptions
}

// Explore performs a breadth-first exploration of all P-only executions
// of p from c, visiting each distinct configuration once, using the
// frontier engine with default options (all cores, fingerprint dedup,
// no store budget). If k > 0 it tracks k-agreement violations.
// c is not mutated. With the store in RAM an engine error can only
// mean an illegal poised operation — a protocol bug — so Explore panics
// on it, as the sequential explorer always has.
func Explore(p model.Protocol, c *model.Config, pids []int, k int, limits ExploreLimits) *ExploreResult {
	res, err := ExploreOpts(p, c, pids, k, ExploreOptions{Limits: limits})
	if err != nil {
		panic(fmt.Sprintf("check: explore: %v", err))
	}
	return res
}

// ExploreOpts is Explore with explicit engine options. The result is
// deterministic: it does not depend on Workers or Store
// (switching between fingerprint and string keying, or selecting a
// Reduction, changes the visited set and may legitimately change
// counts). Under a symmetry reduction the
// counts, decided-value sets and violation *existence* remain
// worker-independent, but the AgreementViolation representative may be
// any member of the violating orbit — orbit members share a fingerprint,
// so which one is retained follows admission order. Unlike Explore it
// returns engine errors instead of panicking: the disk-spilling store
// makes I/O failures (a full disk, an unreadable segment) an expected
// failure mode, not a protocol bug.
//
// It is a class search (SearchClasses): the classes are the values
// decided by members of P — a process outside P that is decided in c
// decided before the exploration began and is background state — and,
// when more than k of them are decided together, violationClass.
func ExploreOpts(p model.Protocol, c *model.Config, pids []int, k int, opts ExploreOptions) (*ExploreResult, error) {
	s, stats, err := exploreOpts(p, c, pids, k, opts)
	if err != nil {
		return nil, err
	}
	return s.result(stats), nil
}

// exploreOpts runs ExploreOpts' class search and returns it with the
// engine's stats. A checkpointing run keeps the search's ClassRecord in
// each manifest, under an "explore" subdirectory, and a resume restores
// it.
func exploreOpts(p model.Protocol, c *model.Config, pids []int, k int, opts ExploreOptions) (*exploreSearch, RunStats, error) {
	s := newExploreSearch(p, c, pids, k)
	eng := opts.Engine
	if eng.Checkpoint != "" {
		eng.Checkpoint = filepath.Join(eng.Checkpoint, "explore")
		eng.checkpointAux = func() ([]byte, error) { return json.Marshal(s.record()) }
		eng.checkpointRestore = func(b []byte) error {
			var rec ClassRecord
			if err := json.Unmarshal(b, &rec); err != nil {
				return fmt.Errorf("explore checkpoint record: %w", err)
			}
			return s.restore(rec)
		}
	}
	_, stats, err := searchClasses(p, c, pids, ExploreOptions{Limits: opts.Limits, Engine: eng}, 0, s.classify, s.t)
	return s, stats, err
}

// exploreSearch is ExploreOpts' class search on one instance: its
// classifier, its class table and the maximum kept beside it. A run, a
// checkpoint resume and the distributed merge (ExploreMerge) all build
// their result from one.
type exploreSearch struct {
	p           model.Protocol
	start       *model.Config
	pids        []int
	k           int
	t           *classTable
	maxTogether atomic.Int64 // a plain maximum beside the search
}

func newExploreSearch(p model.Protocol, start *model.Config, pids []int, k int) *exploreSearch {
	return &exploreSearch{p: p, start: start, pids: pids, k: k, t: newClassTable()}
}

// classify puts v in the class of each value a member of P decided in
// it and, when more than k are decided together, in violationClass.
func (s *exploreSearch) classify(v *View, classes []int) ([]int, error) {
	for _, pid := range s.pids {
		if val, ok := v.Decided(pid); ok && !slices.Contains(classes, val) {
			classes = append(classes, val)
		}
	}
	storeMax(&s.maxTogether, len(classes))
	if s.k > 0 && len(classes) > s.k {
		classes = append(classes, violationClass)
	}
	return classes, nil
}

// violationClass is ExploreOpts' class of configurations in which more
// than k values are decided: an id no decided value uses.
const violationClass = math.MinInt

// ClassRecord is ExploreOpts' class table as it crosses a process
// boundary — in a checkpoint's manifest and in a distributed peer's RESULT
// frame: each class met, with its witness's depth, fingerprint and
// root-to-node path, ascending by class, and the largest number of values
// decided together. A record is only as good as its paths: restore
// replays every one of them before it enters a witness.
type ClassRecord struct {
	Classes     []ClassWitness `json:"classes"`
	MaxTogether int            `json:"max_together"`
}

// ClassWitness is one class of a ClassRecord with its witness.
type ClassWitness struct {
	Class int    `json:"class"`
	Depth int    `json:"depth"`
	FP    uint64 `json:"fp"`
	Path  []byte `json:"path"`
}

// record returns the search's ClassRecord.
func (s *exploreSearch) record() ClassRecord {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	rec := ClassRecord{MaxTogether: int(s.maxTogether.Load())}
	for _, c := range slices.Sorted(maps.Keys(s.t.best)) {
		w := s.t.best[c]
		rec.Classes = append(rec.Classes, ClassWitness{Class: c, Depth: w.Depth, FP: w.FP, Path: w.Path})
	}
	return rec
}

// restore enters rec in the search, its maximum as a maximum and each
// witness by the witness rule once its path is replayed from the start
// configuration. A path that does not replay, whose length is not its
// witness's depth, or that reaches a configuration outside the witness's
// class is an error, and nothing later in rec is entered. Checkpoint
// resume and the distributed merge both restore through it.
func (s *exploreSearch) restore(rec ClassRecord) error {
	storeMax(&s.maxTogether, rec.MaxTogether)
	var buf [8]int
	for _, w := range rec.Classes {
		if len(w.Path) != w.Depth {
			return fmt.Errorf("check: the witness of class %d claims depth %d on a path of %d steps", w.Class, w.Depth, len(w.Path))
		}
		cfg, err := model.Replay(s.p, s.start, w.Path)
		if err != nil {
			return fmt.Errorf("check: replaying the witness of class %d: %w", w.Class, err)
		}
		v := configView(s.p, cfg)
		if classes, _ := s.classify(v, buf[:0]); !slices.Contains(classes, w.Class) { // classify never fails
			return fmt.Errorf("check: the witness path of class %d reaches a configuration outside it (classes %v)", w.Class, classes)
		}
		s.t.offer(w.Depth, w.FP, v, w.Path, []int{w.Class})
	}
	return nil
}

// result builds the search's ExploreResult from the run's stats.
func (s *exploreSearch) result(stats RunStats) *ExploreResult {
	res := &ExploreResult{
		Visited: stats.Processed, Complete: stats.Complete,
		Store: stats.Store, Reduction: stats.Reduction, Async: stats.Async, Net: stats.Net,
		DecidedValues:      make([]int, 0, len(s.t.best)),
		MaxDecidedTogether: int(s.maxTogether.Load()),
	}
	for c, w := range s.t.best {
		if c == violationClass {
			res.AgreementViolation, res.ViolationDepth, res.ViolationFP = w.Cfg, w.Depth, w.FP
		} else {
			res.DecidedValues = append(res.DecidedValues, c)
		}
	}
	sort.Ints(res.DecidedValues)
	return res
}

// storeMax raises m to v if v is larger.
func storeMax(m *atomic.Int64, v int) {
	for old := m.Load(); int64(v) > old && !m.CompareAndSwap(old, int64(v)); old = m.Load() {
	}
}

// ExploreSequential is the single-threaded, string-keyed reference
// explorer: the original implementation, kept as the differential-testing
// oracle for the frontier engine and as the benchmark baseline. On
// complete or depth-capped explorations it visits the same configuration
// set as Explore, so counts, decided-value sets and completeness agree;
// the AgreementViolation representative may still differ (this explorer
// keeps the first violation in BFS insertion order, Explore the minimum
// by (depth, fingerprint, key)). When the configuration budget binds,
// both visit exactly MaxConfigs configurations but may pick different
// representatives.
func ExploreSequential(p model.Protocol, c *model.Config, pids []int, k int, limits ExploreLimits) *ExploreResult {
	limits = limits.WithDefaults()
	res := &ExploreResult{Complete: true}
	allowed := map[int]bool{}
	for _, pid := range pids {
		allowed[pid] = true
	}

	type node struct {
		cfg   *model.Config
		depth int
	}
	seen := map[string]bool{c.Key(): true}
	queue := []node{{cfg: c.Clone(), depth: 0}}
	decided := map[int]bool{}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		res.Visited++

		valsByP := map[int]bool{}
		for _, pid := range pids {
			if v, ok := cur.cfg.Decided(p, pid); ok {
				valsByP[v] = true
				decided[v] = true
			}
		}
		nHere := len(valsByP)
		if nHere > res.MaxDecidedTogether {
			res.MaxDecidedTogether = nHere
		}
		if k > 0 && nHere > k && res.AgreementViolation == nil {
			res.AgreementViolation = cur.cfg.Clone()
		}

		if limits.MaxDepth > 0 && cur.depth >= limits.MaxDepth {
			res.Complete = false
			continue
		}
		for _, pid := range cur.cfg.Active(p) {
			if !allowed[pid] {
				continue
			}
			next := cur.cfg.Clone()
			if _, err := model.Apply(p, next, pid); err != nil {
				panic(fmt.Sprintf("check: explore: %v", err))
			}
			key := next.Key()
			if seen[key] {
				continue
			}
			if len(seen) >= limits.MaxConfigs {
				res.Complete = false
				continue
			}
			seen[key] = true
			queue = append(queue, node{cfg: next, depth: cur.depth + 1})
		}
	}

	res.DecidedValues = sortedValueSet(decided)
	return res
}

// Valency classifies a configuration with respect to a set of processes P
// per Section 2: P is bivalent in C if, for each v in {0,1}, some P-only
// execution from C decides v; otherwise P is univalent (v-univalent for
// the single v it can decide).
type Valency int

// Valency classifications. Unknown means the exploration budget was
// exhausted before a second value was found and the space was not fully
// explored, so univalence could not be certified.
const (
	// Bivalent: witness executions deciding two different values exist.
	Bivalent Valency = iota
	// Univalent: the exploration was complete and exactly one value is
	// decidable.
	Univalent
	// Undecidable: the exploration was complete and no P-only execution
	// decides (cannot happen for solo-terminating protocols with P
	// nonempty, but the classifier is total).
	Undecidable
	// Unknown: budget exhausted; at most one value seen but the space was
	// not exhausted.
	Unknown
)

// String implements fmt.Stringer.
func (v Valency) String() string {
	switch v {
	case Bivalent:
		return "bivalent"
	case Univalent:
		return "univalent"
	case Undecidable:
		return "undecidable"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Valency(%d)", int(v))
	}
}

// ValencyResult reports a valency classification with its evidence.
type ValencyResult struct {
	// Class is the classification.
	Class Valency
	// Values is the set of decidable values found.
	Values []int
	// Complete mirrors ExploreResult.Complete.
	Complete bool
}

// ValencyFromResult classifies the valency of the exploration's start
// configuration for its process set from a finished exploration — mcheck's
// path, single process or distributed, where the result (a coordinator's
// merged one: every peer's class witnesses replayed and re-classified,
// ANDed completeness) carries the decided values and completeness the class
// rests on: bivalence needs two decided values (each backed by a class
// witness), univalence and undecidability additionally need
// completeness, and anything else is Unknown.
func ValencyFromResult(res *ExploreResult) *ValencyResult {
	v := &ValencyResult{Class: Unknown, Values: append([]int(nil), res.DecidedValues...), Complete: res.Complete}
	switch {
	case len(v.Values) >= 2:
		v.Class = Bivalent
	case res.Complete && len(v.Values) == 1:
		v.Class = Univalent
	case res.Complete:
		v.Class = Undecidable
	}
	return v
}
