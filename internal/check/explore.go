package check

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

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
	MaxConfigs int
	// MaxDepth caps the BFS depth: configurations at depth MaxDepth are
	// still visited but not expanded, and the result is marked
	// incomplete. <= 0 means unlimited depth (until MaxConfigs).
	MaxDepth int
}

func (l ExploreLimits) withDefaults() ExploreLimits {
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
	// violating configurations visited it is the deterministically
	// smallest one (minimum BFS depth, then fingerprint), so parallel
	// runs report the same witness as sequential ones.
	AgreementViolation *model.Config
	// ViolationDepth and ViolationFP identify the witness when
	// AgreementViolation is set: its BFS depth and dedup fingerprint (the
	// ordering key parallel runs agree on).
	ViolationDepth int
	ViolationFP    uint64
	// ViolationPath is the witness's root-to-node pid schedule, populated
	// only on runs that maintain paths (checkpointing or distributed) —
	// it is how a distributed peer ships a replayable witness to the
	// coordinator.
	ViolationPath []byte
	// MaxDecidedTogether is the largest number of distinct values decided
	// within a single visited configuration.
	MaxDecidedTogether int
	// ValueWitnesses, populated only on distributed runs (which maintain
	// root-to-node paths anyway), carries one replayable witness schedule
	// per decided value: the deterministically smallest configuration
	// (minimum BFS depth, then fingerprint) observed deciding it. It is
	// how a peer ships valency evidence to the coordinator, which can
	// then classify valency without re-exploring locally.
	ValueWitnesses []ValueWitness
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

// ValueWitness is a replayable decided-value witness: applying Path
// from the start configuration reaches a configuration of depth Depth
// and fingerprint FP in which some explored process has decided Value.
type ValueWitness struct {
	Value int
	Depth int
	FP    uint64
	Path  []byte
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
// sharded frontier engine with default options (all cores, fingerprint
// dedup, no store budget). If k > 0 it tracks k-agreement violations.
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
func ExploreOpts(p model.Protocol, c *model.Config, pids []int, k int, opts ExploreOptions) (*ExploreResult, error) {
	res := &ExploreResult{}

	// witness is a violation candidate snapshotted during its visit (the
	// engine releases node configurations afterwards). path is recorded
	// on checkpointing runs so the witness survives a crash: a restored
	// witness has cfg == nil and is rebuilt by replaying the path.
	type witness struct {
		depth int
		fp    uint64
		key   string
		path  []byte
		cfg   *model.Config
	}
	lessWitness := func(a, b *witness) bool {
		if b == nil {
			return true
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		if a.fp != b.fp {
			return a.fp < b.fp
		}
		return a.key < b.key
	}

	var (
		mu        sync.Mutex
		decided   = map[int]bool{}
		violation *witness
		// valWits (distributed runs only): minimal witness per decided
		// value, shipped to the coordinator for valency classification.
		valWits map[int]*witness
	)
	if opts.Engine.Dist != nil {
		valWits = map[int]*witness{}
	}
	visit := func(_ int, n *Node) error {
		// Only count decisions by members of P; a process outside P that
		// is decided in c decided before the exploration began and is
		// background state. This runs once per visited configuration, so
		// the distinct values are collected on the stack.
		var buf [8]int
		distinct := buf[:0]
		for _, pid := range pids {
			if v, ok := n.Cfg.Decided(p, pid); ok && !slices.Contains(distinct, v) {
				distinct = append(distinct, v)
			}
		}
		if len(distinct) == 0 {
			return nil
		}
		mu.Lock()
		for _, v := range distinct {
			decided[v] = true
			if valWits != nil {
				w := &witness{depth: n.Depth, fp: n.Fingerprint(), key: n.Cfg.Key()}
				if lessWitness(w, valWits[v]) {
					w.path = append([]byte(nil), n.Path()...)
					valWits[v] = w
				}
			}
		}
		if len(distinct) > res.MaxDecidedTogether {
			res.MaxDecidedTogether = len(distinct)
		}
		if k > 0 && len(distinct) > k {
			w := &witness{depth: n.Depth, fp: n.Fingerprint(), key: n.Cfg.Key()}
			if lessWitness(w, violation) {
				w.cfg = n.Cfg.Clone()
				w.path = append([]byte(nil), n.Path()...)
				violation = w
			}
		}
		mu.Unlock()
		return nil
	}

	// Checkpointing: the search-layer accumulators (decided set, witness)
	// ride along in the aux artifact, under an "explore" subdirectory so
	// the exploration and valency phases of one run never share state.
	eng := opts.Engine
	if eng.Checkpoint != "" {
		type auxWitness struct {
			Depth int    `json:"depth"`
			FP    uint64 `json:"fp"`
			Key   []byte `json:"key,omitempty"`
			Path  []byte `json:"path"`
		}
		type exploreAux struct {
			Decided     []int       `json:"decided"`
			MaxTogether int         `json:"max_together"`
			Violation   *auxWitness `json:"violation,omitempty"`
		}
		eng.Checkpoint = filepath.Join(eng.Checkpoint, "explore")
		eng.CheckpointAux = func() ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			aux := exploreAux{Decided: sortedValueSet(decided), MaxTogether: res.MaxDecidedTogether}
			if violation != nil {
				aux.Violation = &auxWitness{Depth: violation.depth, FP: violation.fp,
					Key: []byte(violation.key), Path: violation.path}
			}
			return json.Marshal(aux)
		}
		eng.CheckpointRestore = func(b []byte) error {
			var aux exploreAux
			if err := json.Unmarshal(b, &aux); err != nil {
				return fmt.Errorf("explore checkpoint aux: %w", err)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, v := range aux.Decided {
				decided[v] = true
			}
			res.MaxDecidedTogether = aux.MaxTogether
			if w := aux.Violation; w != nil {
				violation = &witness{depth: w.Depth, fp: w.FP, key: string(w.Key), path: w.Path}
			}
			return nil
		}
	}

	stats, err := RunFrontier(p, c, pids, opts.Limits, eng, visit, nil)
	if err != nil {
		return nil, err
	}
	res.Visited = stats.Processed
	res.Complete = stats.Complete
	res.Store = stats.Store
	res.Reduction = stats.Reduction
	res.Async = stats.Async
	res.Net = stats.Net
	res.DecidedValues = sortedValueSet(decided)
	for _, v := range res.DecidedValues {
		if w := valWits[v]; w != nil {
			res.ValueWitnesses = append(res.ValueWitnesses, ValueWitness{
				Value: v, Depth: w.depth, FP: w.fp, Path: w.path,
			})
		}
	}
	if violation != nil {
		if violation.cfg == nil {
			// Restored from a checkpoint: rebuild the witness configuration
			// by replaying its recorded schedule from the start.
			if violation.cfg, err = model.Replay(p, c, violation.path); err != nil {
				return nil, fmt.Errorf("explore checkpoint: replaying violation witness: %w", err)
			}
		}
		res.AgreementViolation = violation.cfg
		res.ViolationDepth = violation.depth
		res.ViolationFP = violation.fp
		res.ViolationPath = violation.path
	}
	return res, nil
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
	limits = limits.withDefaults()
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

// ClassifyValency explores the P-only space from c and classifies it.
// Bivalence is certified by witnesses and is sound even when incomplete;
// univalence requires a complete exploration. Like Explore it runs on
// the default unbudgeted store, where an engine error can only be a
// protocol bug, and panics on one.
func ClassifyValency(p model.Protocol, c *model.Config, pids []int, limits ExploreLimits) *ValencyResult {
	res, err := ClassifyValencyOpts(p, c, pids, ExploreOptions{Limits: limits})
	if err != nil {
		panic(fmt.Sprintf("check: explore: %v", err))
	}
	return res
}

// ClassifyValencyOpts is ClassifyValency with explicit engine options. It
// runs on the frontier engine with an early exit at the first level
// barrier after two decided values have been witnessed — bivalence is
// then certain and the rest of the space is irrelevant. Engine errors
// (e.g. spill-store I/O failures) are returned, not panicked.
func ClassifyValencyOpts(p model.Protocol, c *model.Config, pids []int, opts ExploreOptions) (*ValencyResult, error) {
	var (
		mu      sync.Mutex
		decided = map[int]bool{}
	)
	visit := func(_ int, n *Node) error {
		for _, pid := range pids {
			if v, ok := n.Cfg.Decided(p, pid); ok {
				mu.Lock()
				decided[v] = true
				mu.Unlock()
			}
		}
		return nil
	}
	afterLevel := func(_, _ int) bool {
		mu.Lock()
		defer mu.Unlock()
		return len(decided) >= 2 // bivalence certified; stopping early is sound
	}
	// Checkpointing: the decided-value set is the only search-layer state;
	// it lives in a "valency" subdirectory, disjoint from ExploreOpts's.
	eng := opts.Engine
	if eng.Checkpoint != "" {
		eng.Checkpoint = filepath.Join(eng.Checkpoint, "valency")
		eng.CheckpointAux = func() ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			return json.Marshal(sortedValueSet(decided))
		}
		eng.CheckpointRestore = func(b []byte) error {
			var vals []int
			if err := json.Unmarshal(b, &vals); err != nil {
				return fmt.Errorf("valency checkpoint aux: %w", err)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, v := range vals {
				decided[v] = true
			}
			return nil
		}
	}
	stats, err := RunFrontier(p, c, pids, opts.Limits, eng, visit, afterLevel)
	if err != nil {
		return nil, err
	}

	out := &ValencyResult{Values: sortedValueSet(decided), Complete: stats.Complete}
	out.Class = classifyValency(out.Values, out.Complete)
	return out, nil
}

// classifyValency is the classification switch shared by the local
// explorer and the distributed merge path.
func classifyValency(values []int, complete bool) Valency {
	switch {
	case len(values) >= 2:
		return Bivalent
	case complete && len(values) == 1:
		return Univalent
	case complete:
		return Undecidable
	default:
		return Unknown
	}
}

// ValencyFromResult classifies the initial configuration's valency from
// a finished exploration over the full process set — mcheck's path, single
// process or distributed, where the result (a coordinator's merged one:
// decided-value union with replay-validated witnesses, ANDed completeness)
// carries exactly the evidence ClassifyValencyOpts would gather by
// exploring the same space again. The class is the one that would find:
// bivalence needs two decided values (each backed by a ValueWitness),
// univalence and undecidability additionally need completeness, and
// anything else is Unknown.
func ValencyFromResult(res *ExploreResult) *ValencyResult {
	return &ValencyResult{
		Class:    classifyValency(res.DecidedValues, res.Complete),
		Values:   append([]int(nil), res.DecidedValues...),
		Complete: res.Complete,
	}
}
