package check

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// This file is the frontier engine's set-up and shared run state. All
// exhaustive searches in the repository run on it, all but the
// sequential oracle through the one class search (classes.go): Explore,
// CheckObstructionFree, Lemma 16's bivalence test and every lowerbound
// search — the witness, bivalence, Lemma 13 and covering searches.
//
// Structure: one expansion core, one worker loop, two orders.
//
//   - A node holds no configuration. Every object value and process state
//     the run meets is interned once in the run's slot dictionary
//     (model.Dict: its encoding, content hash and canonical object under a
//     dense ref), and a node holds its configuration as a vector of refs,
//     one per slot, cut from a pointer-free slab the collector does not
//     scan. The visitor gets a View of the refs: decisions are read from
//     the dictionary, and a model.Config is materialised into the
//     worker's scratch only when the visitor asks for one.
//
//   - The expander (expand.go) turns a chunk of frontier nodes into
//     admitted successors in three phases. It keys every successor from its
//     memoised transition without building it (model.Stepper.Plan: each
//     worker's stepper memoises on (pid, state ref) and value ref over the
//     shared dictionary and maintains the fingerprint incrementally, so a
//     successor's fingerprint is its parent's XOR a constant of the
//     transition); it claims the keys in the visited set; and it builds a
//     node (model.Stepper.Install: the parent's refs with two replaced)
//     only for the claims that were new. Nodes are carved from per-worker
//     slabs and recycled through per-worker free lists (nodeSupply), so a
//     duplicate costs a memo probe and a table probe, and an admitted
//     state a free-list pop or a slab's share of two allocations.
//
//   - Both exploration orders run one worker loop (workerLoop below):
//     take a chunk, visit it, claim and build its successors, hand the new
//     ones on. An order is where the chunks come from. The
//     level-synchronized order (levelsync.go) serves one depth level at a
//     time, and a barrier once it is drained settles dedup, budget
//     truncation, the distributed exchange and checkpoints. The async
//     order (async.go) serves each worker from its own work-stealing
//     deque, with no barrier, and ends on a quiescence counter. RunFrontier
//     below builds what they share — the run state, the store, the root,
//     the first-error cell and the Ctx watcher — and dispatches to one of
//     them.
//
//   - Deduplication and frontier queuing are owned by the state store
//     (store.go, spillstore.go). A worker claims a chunk's candidates in
//     the visited set under one hold of the run's claim lock, so the lock
//     is amortized over the chunk and the table probes run back to back; a
//     level or run drained by one worker takes no lock at all. Without a
//     byte budget the store is an open-addressing keyTable and in-RAM
//     node slices; under one it spills visited fingerprints to sorted runs
//     and frontier nodes to spooled segments, so the explorable space is
//     bounded by disk.
//
//   - Results are deterministic regardless of worker interleaving and of
//     the store's budget: the set of configurations processed at each
//     level is a pure function of the protocol and limits (budget
//     truncation picks survivors by sorted fingerprint, not arrival
//     order), per-worker accumulators are merged with commutative
//     operations, and witness provenance is tie-broken by (parent
//     fingerprint, parent key, pid) rather than discovery order. The
//     async order keeps the verdicts and gives up the schedule
//     determinism.
//
//   - By default the visited set is keyed by the 64-bit incremental slot
//     fingerprint (model.Config.SlotFingerprint). Distinct configurations
//     colliding on a fingerprint would be conflated (probability ~2^-64
//     per pair, the classic bitstate-hashing trade-off);
//     EngineOptions.StringKeys selects exact deduplication instead — the
//     fallback the lowerbound certificate searches use so that a collision
//     can never silently prune a witness. Exact keying has the same
//     shortcuts: the dictionary interns by encoding, byte for byte, so a
//     node's ref vector is its exact key (keytable.go), a successor's is
//     its parent's with two refs replaced, and the visited table compares
//     tuples; an encoding is read from the dictionary only where two
//     entries of one fingerprint must be ordered. What it pays for is
//     keeping every visited configuration's tuple.
//
//   - EngineOptions.Reduction installs the state-space reduction layer
//     (reduce.go): orbit-canonical fingerprints for declared
//     process-symmetric protocols. The quotient preserves reachability
//     verdicts, not schedules.
//
//   - Which modes combine is declared once, in modes.go.

// EngineOptions configures the frontier engine; Validate (modes.go)
// checks it. Its JSON form is what a distributed run's HELLO carries to
// each peer: every field but the process-local ones tagged "-".
type EngineOptions struct {
	// Ctx, when non-nil, cancels the run in-process: once it is done the
	// workers stop pulling and expanding at the next node boundary and
	// the run returns Ctx.Err() (wrapped). This is what lets a serving
	// layer kill a hung or over-budget check without killing the process
	// — both exploration orders honor it. A nil Ctx means "never
	// cancelled", preserving every existing call site.
	Ctx context.Context `json:"-"`
	// Workers is the number of goroutines draining each frontier level
	// (0 = runtime.GOMAXPROCS(0); negative is rejected). Results do not
	// depend on it.
	Workers int `json:"workers,omitempty"`
	// StringKeys keys the visited set by each configuration's exact
	// identity — its slot refs into the run's dictionary, which interns by
	// encoding — instead of the 64-bit fingerprint: immune to hash
	// collisions — no dedup, memo or ordering decision rests on a hash
	// comparison alone — at higher memory cost (every visited
	// configuration keeps its ref tuple).
	StringKeys bool `json:"string_keys,omitempty"`
	// Reduction selects the state-space reduction layer (reduce.go):
	// "" or "none" (no reduction), or "sym" (incremental process-symmetry
	// quotienting over the classes the protocol declares via
	// model.ProcessSymmetric); "sym+sleep" is a deprecated synonym of
	// "sym" (ReduceSymSleep). The quotient preserves decided-value sets,
	// valency classes and violation existence but not schedules, so it
	// is rejected together with Provenance or StringKeys (modes.go).
	Reduction string `json:"reduce,omitempty"`
	// Order selects the exploration order: "" or "levelsync" for the
	// deterministic level-synchronized order, "async" for the
	// barrier-free work-stealing order (async.go): per-worker deques,
	// continuous admission with no EndLevel barrier, and counter-based
	// quiescence termination. Async preserves every verdict and the
	// visited-set size but not schedules or level structure, so it is
	// rejected together with Provenance or StringKeys. It runs in one
	// process over the unbudgeted store, unreduced or under "sym", without
	// checkpoints (modes.go says why the rest is rejected with it).
	Order string `json:"order,omitempty"`
	// Provenance gives every node its deterministic first-reached
	// schedule as its root-to-node pid path (Node.Path): among one
	// level's claims of a configuration, the one with the smallest
	// (parent fingerprint, parent key, pid) wins, whatever the discovery
	// order — required by the witness-extracting searches. It costs a
	// claim written per admission (under fingerprint keys, 12-byte slots
	// in the visited table instead of 8) and a path per node; nodes are
	// recycled once visited and expanded, and a budgeted store spools the
	// frontier, as in any run. Limited to 255 processes, like Checkpoint.
	Provenance bool `json:"provenance,omitempty"`
	// Store sets the state store's budget: "" or "mem" runs it in RAM
	// with none, "spill" bounds its resident memory by MemBudget and
	// spills the rest to disk. Results do not depend on it.
	Store string `json:"store,omitempty"`
	// MemBudget is the resident-byte budget of Store "spill" (0 selects
	// DefaultMemBudget). Any other store rejects a non-zero one.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// SpillDir is where a budgeted store keeps its run and segment files
	// ("" = a fresh directory under os.TempDir, removed on completion). It
	// is created with the first file, so a run that never spills leaves
	// no trace of it.
	SpillDir string `json:"-"`
	// Checkpoint is a directory for crash-safe snapshots: at level
	// barriers the engine writes the visited entries admitted since the
	// previous snapshot (a delta; the deltas stay while the manifest
	// names them), the next frontier and, for ExploreOpts, its
	// ClassRecord there (write-then-rename manifests; resume replays and
	// re-classifies every witness path), and a new run pointed at the
	// same directory resumes from the last committed generation with an
	// identical final verdict, replaying the frontier a chunk at a time
	// as its first level is expanded. Levelsync order only: the async
	// order has no barrier to snapshot at. Incompatible with Provenance
	// (modes.go says why), and limited to 255 processes (checkpoint.go).
	// Empty disables checkpointing.
	Checkpoint string `json:"checkpoint,omitempty"`
	// CheckpointEvery writes a snapshot at every Nth level barrier (0
	// means every barrier; negative is rejected); its delta spans the
	// barriers since the last one. The run's final barrier always
	// snapshots, so a finished run resumes to its verdict instantly.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Progress, if non-nil, is invoked after every completed level with
	// cumulative throughput statistics.
	Progress func(Progress) `json:"-"`
	// Dist, if non-nil, attaches this engine to a distributed run as one
	// peer: successors whose fingerprints hash to another peer's
	// partition range are shipped over the link instead of admitted
	// locally, remote successors delivered by the link are admitted as
	// local candidates, and level barriers are coordinated across the
	// wire. dist.go states the routing and determinism contract.
	// Levelsync order only; incompatible with Provenance, StringKeys and
	// Checkpoint.
	Dist DistLink `json:"-"`

	// checkpointAux serializes the search layer's accumulators
	// (ExploreOpts' ClassRecord) into each snapshot's manifest, and
	// checkpointRestore restores them on resume; ExploreOpts is their only
	// setter.
	checkpointAux     func() ([]byte, error)
	checkpointRestore func([]byte) error
}

func (o EngineOptions) withDefaults() EngineOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Store == "" {
		o.Store = StoreMem
	}
	return o
}

// keepsPaths reports whether a run gives its nodes root-to-node paths:
// provenance, checkpointing and distributed runs do.
func (o EngineOptions) keepsPaths() bool {
	return o.Provenance || o.Checkpoint != "" || o.Dist != nil
}

// Progress reports cumulative engine throughput: after every completed
// level (level-synchronized order), or on a wall-clock tick (async order,
// which has no levels).
type Progress struct {
	// Order is the exploration order reporting ("" means levelsync).
	Order string
	// Depth is the level just completed (-1 for async order ticks).
	Depth int
	// FrontierSize is the number of configurations processed at it.
	FrontierSize int
	// Processed is the total processed so far.
	Processed int
	// Admitted is the total admitted (processed + queued next level).
	Admitted int
	// Elapsed is the wall time since the run started.
	Elapsed time.Duration
}

// Node is one admitted configuration in an engine run, with, in runs that
// keep paths, the pid path that replays a schedule reaching it. The
// configuration is its refs into the run's slot dictionary, one per slot
// (objects, then states), which the visitor reads through a View; a slot's
// content hash is the dictionary's too. The engine recycles a node once it
// has been visited and expanded, so a visitor must not keep it.
type Node struct {
	// Depth is the BFS depth (root = 0).
	Depth int
	// Pid is the process whose step produced this node from its parent
	// (-1 at the root).
	Pid int

	fp     uint64   // dedup fingerprint (slot fp, or orbit-canonical under "sym")
	slotFP uint64   // incremental slot fingerprint (Step.Fingerprint chain)
	refs   []uint32 // slot refs into the run's model.Dict, from a pointer-free slab; the exact key too
	path   []byte   // root-to-node pid bytes, set only in runs that keep paths

	// reexpand marks an async-order depth-relaxation item (MaxDepth runs
	// only): a state already visited, re-expanded at an improved depth.
	reexpand bool
}

// View is a visited configuration as a visitor reads it: the node's slot
// refs and the run's dictionary. Decided reads a process's decision from
// the dictionary, which computed it when the state was interned, so a
// visitor that reads only decisions never builds a model.Config; Config
// materialises one into the worker's scratch on its first call. A view,
// like its node, is valid only during the visit, and what Config returns
// must not be mutated.
type View struct {
	dict  *model.Dict
	refs  []uint32
	nObj  int
	cfg   *model.Config
	ready bool // cfg holds the configuration of refs
}

// materialiseHook, when non-nil, is called whenever a View materialises
// its configuration — a test seam for counting them
// (TestClassSearchMaterialisesOnOffers).
var materialiseHook func()

// Decided reports whether process pid has decided, and its value.
func (v *View) Decided(pid int) (int, bool) { return v.dict.Decision(v.refs[v.nObj+pid]) }

// Config returns the configuration, materialised on the first call.
func (v *View) Config() *model.Config {
	if !v.ready {
		if hook := materialiseHook; hook != nil {
			hook()
		}
		v.dict.Materialise(v.refs, v.cfg)
		v.ready = true
	}
	return v.cfg
}

// configView wraps cfg, a configuration of p outside any run, in a view
// over a dictionary of its own.
func configView(p model.Protocol, cfg *model.Config) *View {
	v := &View{dict: model.NewDict(p), refs: make([]uint32, len(cfg.Objects)+len(cfg.States)),
		nObj: len(cfg.Objects), cfg: cfg, ready: true}
	v.dict.Intern(cfg, v.refs)
	return v
}

// Fingerprint returns the dedup key of the node's configuration under the
// engine's keying mode.
func (n *Node) Fingerprint() uint64 { return n.fp }

// Path returns the pid sequence from the root to n as one byte per
// step. It is populated only in runs that keep paths: provenance runs
// (where it is the deterministic first-reached schedule), checkpointing
// runs (where it is how frontiers and witnesses persist) and distributed
// runs. The returned slice is the node's own buffer and must be copied if
// retained beyond the visit.
func (n *Node) Path() []byte { return n.path }

// RunStats summarizes an engine run. Its JSON form is the stats half of a
// distributed peer's RESULT (ExploreShare).
type RunStats struct {
	// Processed is the number of distinct configurations visited.
	Processed int `json:"visited"`
	// Complete reports whether the restricted reachable space was
	// exhausted within the limits (early stop via afterLevel does not
	// clear it, mirroring the sequential explorers).
	Complete bool `json:"complete"`
	// Levels is the number of frontier levels processed (0 for async
	// order, which has no level structure).
	Levels int `json:"levels,omitempty"`
	// Store reports the state store's activity (spill volume, peak
	// resident bytes).
	Store StoreStats `json:"store"`
	// Reduction reports the reduction layer's activity (orbit folds);
	// zero-valued when no reduction ran.
	Reduction ReductionStats `json:"reduction"`
	// Async reports the exploration order that ran and, for async runs,
	// the work-stealing and quiescence-detection activity.
	Async AsyncStats `json:"async"`
	// Net reports the distributed link's wire activity; zero-valued for
	// single-process runs.
	Net NetStats `json:"net"`
}

// add folds o, another process's share of one run, into s: counts and
// stats sum, completeness ANDs, Levels is the deepest share's, and the
// order is o's (every share ran the same mode).
func (s *RunStats) add(o RunStats) {
	s.Processed += o.Processed
	s.Complete = s.Complete && o.Complete
	s.Levels = max(s.Levels, o.Levels)
	s.Store.add(o.Store)
	s.Reduction.add(o.Reduction)
	s.Async.Order = o.Async.Order
	s.Net.add(o.Net)
}

// chunkSize caps the frontier nodes a worker claims and expands at once
// (expander.plan / commit): large enough to amortize the claim lock over
// the chunk's candidates, small enough that a level's tail stays balanced
// across workers and the chunk scratch stays in cache.
const chunkSize = 256

// claimState is the engine-side face of the visited set: the lock a claim
// is made under and the same-level folds that are part of it (the
// provenance tie-break, async's depth relaxation). The table and the
// frontier queues are the store's. The set is one table under one
// lock, not partitioned: at two workers, all this repository's benchmark
// runs, 8 and 64 lock-striped partitions measured no faster (README, "The
// visited set has one lock"). During a level (or an async run) drained by
// several workers every access is under mu; a single worker, and the
// barrier, take no lock.
type claimState struct {
	mu sync.Mutex
	// claims holds the claim each of this level's admissions is credited
	// to (provenance runs only), indexed by the admission's entry index in
	// the store's delta less base, the delta's entry count when the level
	// began: a level's admissions are the delta's entries from base on,
	// dense and in claim order (a delta is flushed, and renumbered from
	// 0, only at the barrier, before base is taken). An admission the
	// closing level's cut bound drops holds no claim. parentKeys holds the
	// exact keys of the parents the claims are credited to, copied out of
	// the nodes, which are recycled before the level ends; a claim holds
	// its parent's key by index.
	claims     []claimant
	base       uint32
	parentKeys tupleArena
	// overrides holds the root-to-node path of every admission of this
	// level a later, smaller claim took over, keyed by the entry (an
	// entryMap, entrymap.go) since a flush renumbers the delta before the
	// next level reads it; at the barrier it becomes settled, whose paths
	// levelSource.take writes into the nodes before they are visited or
	// expanded. Each level starts claims over from base, and the barrier
	// resets parentKeys and the new overrides in place, for the next level
	// to refill.
	overrides, settled pathMap
	// depth is the best-known depth per state (async MaxDepth runs only); a
	// strictly smaller duplicate re-enqueues the state as a deepen item.
	depth map[uint64]int
}

// claimant is the claim a provenance run credits an admission to: the
// parent's fingerprint and, under exact keys, its key's index in the
// level's parent arena (claimState.parentKeys; noParentKey otherwise), and
// the pid that stepped it. A pid < 0 is no claim: the admission of a node
// never built, which no duplicate can take over.
type claimant struct {
	parentFP uint64
	parentAt uint32
	pid      int32
}

// noParentKey is a claimant's parentAt outside exact-key runs.
const noParentKey = ^uint32(0)

// engineRun carries the per-run state both exploration orders share: the
// instance, the callbacks, the store, the per-worker expanders, the
// admission counters and the stop signal.
type engineRun struct {
	p          model.Protocol
	start      *model.Config
	allowed    []bool // allowed[pid]: pid is in the explored set
	nObj       int
	nProc      int
	dict       *model.Dict // every slot the run meets; nodes hold refs into it
	opts       EngineOptions
	limits     ExploreLimits
	visit      func(worker int, n *Node, v *View) error
	afterLevel func(depth, processed int) (stop bool)
	began      time.Time

	// pathsOn maintains every node's root-to-node pid path: set for
	// provenance runs (the path is the witness schedule), checkpointing
	// runs (paths are how frontiers and class witnesses persist) and
	// distributed runs (paths are the wire records' replay fallback and
	// how peers ship their class witnesses to the coordinator).
	pathsOn bool
	// link is the distributed peer link (nil for single-process runs) and
	// remat what rebuilds the nodes of the records it delivers.
	link  DistLink
	remat *rematerialiser
	// symClasses are the symmetry classes the run refined (none: the
	// quotient is inactive).
	symClasses [][]int
	expanders  []*expander
	store      *spillStore
	claims     claimState
	nodes      []nodeSupply // per worker
	bound      levelBound
	asyncOn    bool

	admitted  atomic.Int64
	closed    atomic.Bool // no further admissions (budget exhausted)
	truncated atomic.Bool // some reachable configuration was dropped

	// firstErr is the run's one error cell. The error is boxed behind a
	// pointer because concurrent failures (a Ctx wrap error racing a link
	// or visit error) carry different concrete types, which a bare
	// atomic.Value compare-and-swap panics on.
	firstErr atomic.Pointer[error]
	// done is closed, and doneFlag set, when the run must stop: the first
	// failure, or (async order) quiescence or an early stop.
	doneFlag atomic.Bool
	done     chan struct{}
}

// fail records err if it is the run's first failure and stops the run.
// Every worker breaks out at its next node boundary; the order's loop
// returns the recorded error once the in-flight work drains.
func (r *engineRun) fail(err error) {
	if err == nil {
		return
	}
	// Box a copy: taking the parameter's own address would move it to the
	// heap on every call, nil ones on the hot paths included.
	boxed := err
	if r.firstErr.CompareAndSwap(nil, &boxed) {
		r.finish()
	}
}

// err returns the recorded first failure, if any.
func (r *engineRun) err() error {
	if p := r.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// finish stops the run exactly once (failure, quiescence or early stop).
func (r *engineRun) finish() {
	if r.doneFlag.CompareAndSwap(false, true) {
		close(r.done)
	}
}

// workSource is what the worker loop runs on: where a worker's chunks come
// from and where the nodes their claims admit go — a level and the store's
// next-level queues (levelsync.go), or the workers' deques (async.go).
type workSource interface {
	// take fills buf with worker w's next chunk and returns its size; 0
	// means w is done: the level is drained, or the run is over.
	take(w int, buf []*Node) int
	// put hands on what the claims of w's chunk of m nodes admitted.
	put(w int, admitted []*Node, m int)
}

// workerLoop is worker w under either order: take a chunk of at most
// chunkLen nodes, visit it and plan every node's successors (a reexpand
// item is planned, not visited again), claim them and build the new ones
// (expander.commit; locked says other workers claim too) and put those.
// A chunk cut short — a visit or step error, a cancel, an early stop — is
// dropped whole: the run is over, and nothing of it is claimed.
func (r *engineRun) workerLoop(w int, src workSource, chunkLen int, locked bool) {
	x := r.expander(w)
	chunk := make([]*Node, chunkLen)
	for !r.doneFlag.Load() {
		m := src.take(w, chunk)
		if m == 0 {
			return
		}
		x.begin()
		visited := int64(0)
		for _, n := range chunk[:m] {
			if r.doneFlag.Load() {
				break
			}
			var err error
			if !n.reexpand {
				if err = r.visit(w, n, x.view(n)); err == nil {
					visited++
				}
			}
			if err == nil {
				err = x.plan(n)
			}
			if err != nil {
				r.fail(err)
				break
			}
		}
		x.visited.Add(visited)
		if !r.doneFlag.Load() {
			src.put(w, x.commit(locked), m)
		}
		for _, n := range chunk[:m] {
			r.recycle(w, n)
		}
	}
}

// runWorkers runs work(w) for every w in [0, nw) and returns once all
// have; a single worker runs on the calling goroutine.
func runWorkers(nw int, work func(w int)) {
	if nw <= 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for w := range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
}

// report sends p, with the admission count and the elapsed time filled
// in, to the Progress callback, if there is one.
func (r *engineRun) report(p Progress) {
	if r.opts.Progress != nil {
		p.Admitted, p.Elapsed = int(r.admitted.Load()), time.Since(r.began)
		r.opts.Progress(p)
	}
}

// nodeTakenHook, when non-nil, is called for every node handed out — a
// test seam for counting them (TestDuplicateTakesNoNode).
var nodeTakenHook func()

// runDictHook, when non-nil, is called with every run's dictionary before
// the run interns anything — a test seam for numbering refs otherwise
// (TestOrderIgnoresRefNumbering).
var runDictHook func(*model.Dict)

// Slab sizes, in nodes: a worker's first slab holds firstSlab, and each
// next one twice its predecessor's, up to maxSlab. A small run carves few
// nodes it never uses; a large one pays four allocations per maxSlab nodes.
const (
	firstSlab = 8
	maxSlab   = 256
)

// nodeSupply is one worker's nodes: the free list its newNode pops and
// its recycle pushes, and the size of its next slab. Only worker w, or
// the barrier while no worker runs, touches supply w, so it takes no
// lock. A node may be recycled on another worker's supply than the one
// that carved it; it is the same shape either way.
type nodeSupply struct {
	free []*Node
	slab int
	_    [32]byte // a cache line per worker
}

// newNode hands worker w a node with a correctly-shaped ref vector: a
// recycled one, or one of a fresh slab.
func (r *engineRun) newNode(w int) *Node {
	if hook := nodeTakenHook; hook != nil {
		hook()
	}
	s := &r.nodes[w]
	if len(s.free) == 0 {
		r.carveSlab(s)
	}
	n := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return n
}

// carveSlab fills s's free list with the nodes of one new slab: one
// allocation for the node headers and one, pointer-free and so never
// scanned by the collector, for their slot refs, every node's refs cut to
// capacity so that none can grow into its neighbour's.
func (r *engineRun) carveSlab(s *nodeSupply) {
	k := max(s.slab, firstSlab)
	s.slab = min(2*k, maxSlab)
	nSlot := r.nObj + r.nProc
	nodes := make([]Node, k)
	refs := make([]uint32, k*nSlot)
	for i := k - 1; i >= 0; i-- { // the slab goes out in address order
		nodes[i].refs = refs[i*nSlot : (i+1)*nSlot : (i+1)*nSlot]
		s.free = append(s.free, &nodes[i])
	}
}

// recycle puts a node nothing refers to any more — a visited and expanded
// frontier node, a spooled or replaced one — on worker w's free list.
func (r *engineRun) recycle(w int, n *Node) {
	n.reexpand = false
	r.nodes[w].free = append(r.nodes[w].free, n)
}

// rootNode returns worker w's depth-0 node holding the start
// configuration, interned in the run's dictionary and not yet keyed.
func (r *engineRun) rootNode(w int) *Node {
	n := r.newNode(w)
	n.Depth, n.Pid = 0, -1
	n.path = n.path[:0]
	n.slotFP = r.dict.Intern(r.start, n.refs)
	return n
}

// RunFrontier explores the pids-only reachable space of p from start with
// the frontier engine. visit is called exactly once per distinct
// admitted configuration, concurrently from workers (worker indices are
// 0..Workers-1, for per-worker accumulators), with the node and a view of
// its configuration (View: decisions read from the run's dictionary, the
// configuration materialised into the worker's scratch only if asked
// for), both valid only during the call. afterLevel, if non-nil, is
// called at each level barrier and may stop the run early. start is not
// mutated. A visit error or an illegal poised operation aborts the run.
func RunFrontier(p model.Protocol, start *model.Config, pids []int, limits ExploreLimits, opts EngineOptions,
	visit func(worker int, n *Node, v *View) error,
	afterLevel func(depth, processed int) (stop bool),
) (rstats RunStats, rerr error) {
	asyncOn, symOn, err := opts.resolve(opts.Dist != nil)
	if err != nil {
		return RunStats{}, err
	}
	limits = limits.WithDefaults()
	opts = opts.withDefaults()

	nObj := len(p.Objects())
	nProc := p.NumProcesses()
	if len(start.Objects) != nObj || len(start.States) != nProc {
		return RunStats{}, fmt.Errorf("frontier engine: start configuration has %d objects and %d states, protocol declares %d and %d",
			len(start.Objects), len(start.States), nObj, nProc)
	}
	pathsOn := opts.keepsPaths()
	if pathsOn && nProc > 255 {
		return RunStats{}, fmt.Errorf("frontier engine: provenance, checkpointed and distributed runs support at most 255 processes (root-to-node paths store one pid byte per step), protocol declares %d", nProc)
	}

	run := &engineRun{
		p: p, start: start, nObj: nObj, nProc: nProc, dict: model.NewDict(p),
		allowed: make([]bool, nProc),
		opts:    opts, limits: limits, visit: visit, afterLevel: afterLevel,
		began:     time.Now(),
		pathsOn:   pathsOn,
		asyncOn:   asyncOn,
		link:      opts.Dist,
		expanders: make([]*expander, opts.Workers),
		done:      make(chan struct{}),
		nodes:     make([]nodeSupply, opts.Workers),
	}
	for _, pid := range pids {
		if pid >= 0 && pid < nProc {
			run.allowed[pid] = true
		}
	}
	if hook := runDictHook; hook != nil {
		hook(run.dict)
	}

	if opts.Provenance {
		cl := &run.claims
		cl.parentKeys = newTupleArena(nObj + nProc)
		cl.overrides, cl.settled = newPathMap(), newPathMap()
	}
	if asyncOn && limits.MaxDepth > 0 {
		run.claims.depth = map[uint64]int{}
	}
	sctx := storeCtx{
		workers:    opts.Workers,
		nObj:       nObj,
		nProc:      nProc,
		dict:       run.dict,
		stringKeys: opts.StringKeys,
		indexed:    opts.Provenance,
		newNode:    run.newNode,
		recycle:    run.recycle,
		fail:       run.fail,
		stopped:    run.doneFlag.Load,
	}
	budget := opts.MemBudget // 0 on StoreMem (Validate): no budget
	if opts.Store == StoreSpill && budget <= 0 {
		budget = DefaultMemBudget
	}
	if run.store, err = newSpillStore(sctx, budget, opts.SpillDir); err != nil {
		return RunStats{}, err
	}
	defer func() {
		rstats.Store = run.store.Stats()
		if cerr := run.store.Close(); cerr != nil && rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			rstats.Complete = false
		}
		if symOn {
			rstats.Reduction.Reduce = ReduceSym
		}
		for _, x := range run.expanders {
			if x != nil && x.sw != nil {
				rstats.Reduction.StatesPruned += x.sw.statesPruned
			}
		}
		if run.link != nil {
			rstats.Net = run.link.NetStats()
		}
	}()

	// Root node. The reduction plan refines the declared symmetry classes
	// against the root's slot hashes and the explored pid set, so it sits
	// between interning the root and keying it.
	root := run.rootNode(0)
	if symOn {
		rootH := make([]uint64, len(root.refs))
		for i, ref := range root.refs {
			rootH[i] = run.dict.SlotHash(i, ref)
		}
		run.symClasses = planReduction(p, run.allowed, nObj, rootH)
	}
	run.expander(0).key(root)

	if run.link != nil {
		run.link.Start(opts.Workers)
		run.remat = &rematerialiser{ctx: sctx,
			replay: func(w int, path []byte) (*Node, error) { return replayPath(run, w, path) }}
	}
	// In-process cancellation: Ctx's done signal takes the same fail path
	// a visit error takes, under either order.
	if ctx := opts.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return RunStats{}, fmt.Errorf("frontier engine: %w", err)
		}
		stopWatch := context.AfterFunc(ctx, func() {
			run.fail(fmt.Errorf("frontier engine: %w", ctx.Err()))
		})
		defer stopWatch()
	}
	if asyncOn {
		return runAsync(run, root)
	}
	return runLevelSync(run, root)
}
