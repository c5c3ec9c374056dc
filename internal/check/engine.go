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

// This file is the sharded frontier engine's set-up and shared run
// state. All exhaustive searches in the repository — Explore,
// ClassifyValency, CheckObstructionFree and the lowerbound schedule
// searches — run on it.
//
// Structure: one expansion core, one worker loop, two orders.
//
//   - The expander (expand.go) turns a chunk of frontier nodes into
//     admitted successors in three phases. It keys every successor from its
//     memoised transition without building it (model.Stepper.Plan: the
//     worker's stepper canonicalizes object values and process states in an
//     append-only intern arena and maintains the fingerprint incrementally,
//     so a successor's fingerprint is its parent's XOR a constant of the
//     transition); it claims the keys in the visited set; and it builds a
//     node (model.Stepper.Install: copy-on-write, every unchanged slot
//     shared with the parent) only for the claims that were new. Node
//     buffers — the Config slices and slot-hash vectors — are recycled
//     through a sync.Pool, so a duplicate costs a memo probe and a table
//     probe and an admitted state no heap allocation in the steady case.
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
//     byte budget the store is an open-addressing fpSet table and in-RAM
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
//     EngineOptions.StringKeys selects exact binary-encoding
//     deduplication instead — the exact-encoding fallback the lowerbound
//     certificate searches use so that a collision can never silently
//     prune a witness. Exact keying has the same shortcuts made exact
//     (transition memos keyed by encodings, successor keys spliced from
//     the parent's: model.Stepper.AppendKey); what it pays for is keeping
//     every visited configuration's whole key.
//
//   - EngineOptions.Reduction installs the state-space reduction layer
//     (reduce.go): orbit-canonical fingerprints for declared
//     process-symmetric protocols. The quotient preserves reachability
//     verdicts, not schedules.
//
//   - Which modes combine is declared once, in modes.go.

// EngineOptions configures the sharded frontier engine.
type EngineOptions struct {
	// Ctx, when non-nil, cancels the run in-process: once it is done the
	// workers stop pulling and expanding at the next node boundary and
	// the run returns Ctx.Err() (wrapped). This is what lets a serving
	// layer kill a hung or over-budget check without killing the process
	// — both exploration orders honor it. A nil Ctx means "never
	// cancelled", preserving every existing call site.
	Ctx context.Context
	// Workers is the number of goroutines draining each frontier level
	// (default runtime.GOMAXPROCS(0)). Results do not depend on it.
	Workers int
	// StringKeys keys the visited set by the exact binary encoding of
	// each configuration instead of the 64-bit fingerprint: immune to
	// hash collisions — no dedup, memo or ordering decision rests on a
	// hash comparison alone — at higher memory and hashing cost (every
	// visited configuration keeps its whole key).
	StringKeys bool
	// Reduction selects the state-space reduction layer (reduce.go):
	// "" or "none" (no reduction), or "sym" (incremental process-symmetry
	// quotienting over the classes the protocol declares via
	// model.ProcessSymmetric); "sym+sleep" is a deprecated synonym of
	// "sym" (ReduceSymSleep). The quotient preserves decided-value sets,
	// valency classes and violation existence but not schedules, so it
	// is rejected together with Provenance or StringKeys (modes.go).
	Reduction string
	// Order selects the exploration order: "" or "levelsync" for the
	// deterministic level-synchronized order, "async" for the
	// barrier-free work-stealing order (async.go): per-worker deques,
	// continuous admission with no EndLevel barrier, and counter-based
	// quiescence termination. Async preserves every verdict and the
	// visited-set size but not schedules or level structure, so it is
	// rejected together with Provenance or StringKeys. It runs in one
	// process over the unbudgeted store, unreduced or under "sym", without
	// checkpoints (modes.go says why the rest is rejected with it).
	Order string
	// Provenance gives every node its deterministic first-reached
	// schedule as its root-to-node pid path (Node.Schedule): among one
	// level's claims of a configuration, the one with the smallest
	// (parent fingerprint, parent key, pid) wins, whatever the discovery
	// order — required by the witness-extracting searches. It costs a
	// pending-table insert per admission and a path per node; nodes are
	// recycled once visited and expanded, and a budgeted store spools the
	// frontier, as in any run. Limited to 255 processes, like Checkpoint.
	Provenance bool
	// Store sets the state store's budget: "" or "mem" runs it in RAM
	// with none, "spill" bounds its resident memory by MemBudget and
	// spills the rest to disk. Results do not depend on it.
	Store string
	// MemBudget is the resident-byte budget of Store "spill" (0 selects
	// DefaultMemBudget). Ignored by Store "mem".
	MemBudget int64
	// SpillDir is where a budgeted store keeps its run and segment files
	// ("" = a fresh directory under os.TempDir, removed on completion). It
	// is created with the first file, so a run that never spills leaves
	// no trace of it.
	SpillDir string
	// Checkpoint is a directory for crash-safe snapshots: at level
	// barriers the engine writes the visited set, the next frontier and
	// the search-layer accumulators there (write-then-rename manifests),
	// and a new run pointed at the same directory resumes from the last
	// committed generation with an identical final verdict. Levelsync
	// order only: the async order has no barrier to snapshot at.
	// Incompatible with Provenance (modes.go says why), and limited to
	// 255 processes (checkpoint.go). Empty disables checkpointing.
	Checkpoint string
	// CheckpointEvery writes a snapshot at every Nth level barrier
	// (<= 0 means every barrier). The run's final barrier always
	// snapshots, so a finished run resumes to its verdict instantly.
	CheckpointEvery int
	// CheckpointAux, if non-nil, serializes the search layer's
	// accumulators (decided values, witness state) into each snapshot;
	// CheckpointRestore rehydrates them on resume. Installed by
	// ExploreOpts/ClassifyValencyOpts, not by end callers.
	CheckpointAux     func() ([]byte, error)
	CheckpointRestore func([]byte) error
	// Progress, if non-nil, is invoked after every completed level with
	// cumulative throughput statistics.
	Progress func(Progress)
	// Dist, if non-nil, attaches this engine to a distributed run as one
	// peer: successors whose fingerprints hash to another peer's
	// partition range are shipped over the link instead of admitted
	// locally, remote successors delivered by the link are admitted as
	// local candidates, and level barriers are coordinated across the
	// wire. dist.go states the routing and determinism contract.
	// Levelsync order only; incompatible with Provenance, StringKeys and
	// Checkpoint.
	Dist DistLink
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
// keep paths, the pid path that replays a schedule reaching it.
type Node struct {
	// Cfg is the configuration. Visitors must not mutate it, and must
	// not keep it beyond the visit: the engine recycles each node's
	// buffers once the node has been visited and expanded.
	Cfg *model.Config
	// Depth is the BFS depth (root = 0).
	Depth int
	// Pid is the process whose step produced this node from its parent
	// (-1 at the root).
	Pid int

	fp     uint64   // dedup fingerprint (slot fp, or orbit-canonical under "sym")
	slotFP uint64   // incremental slot fingerprint (Step.Fingerprint chain)
	slotH  []uint64 // per-slot content hashes, parallel to Cfg slots
	key    string   // exact encoding, set only in string-key mode
	path   []byte   // root-to-node pid bytes, set only in runs that keep paths

	// reexpand marks an async-order depth-relaxation item (MaxDepth runs
	// only): a state already visited, re-expanded at an improved depth.
	reexpand bool
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

// Schedule returns n's Path as pids (nil at the root, and in a run that
// keeps no paths).
func (n *Node) Schedule() []int {
	var out []int
	for _, pid := range n.path {
		out = append(out, int(pid))
	}
	return out
}

// RunStats summarizes an engine run.
type RunStats struct {
	// Processed is the number of distinct configurations visited.
	Processed int
	// Complete reports whether the restricted reachable space was
	// exhausted within the limits (early stop via afterLevel does not
	// clear it, mirroring the sequential explorers).
	Complete bool
	// Levels is the number of frontier levels processed (0 for async
	// order, which has no level structure).
	Levels int
	// Store reports the state store's activity (spill volume, peak
	// resident bytes).
	Store StoreStats
	// Reduction reports the reduction layer's activity (orbit folds);
	// zero-valued when no reduction ran.
	Reduction ReductionStats
	// Async reports the exploration order that ran and, for async runs,
	// the work-stealing and quiescence-detection activity.
	Async AsyncStats
	// Net reports the distributed link's wire activity; zero-valued for
	// single-process runs.
	Net NetStats
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
	// pending holds the claim each of this level's admissions is credited
	// to, by fingerprint (provenance runs only); pendingExact the ones whose
	// fingerprint an earlier admission with a different key already took:
	// under exact keys a shared fingerprint must not merge two
	// configurations here either.
	pending      map[uint64]claimant
	pendingExact map[string]claimant
	// overrides holds the root-to-node path of every admission of this
	// level a later, smaller claim took over; at the barrier it becomes
	// settled, whose paths levelSource.take writes into the nodes before
	// they are visited or expanded.
	overrides, settled map[entry][]byte
	// depth is the best-known depth per state (async MaxDepth runs only); a
	// strictly smaller duplicate re-enqueues the state as a deepen item.
	depth map[uint64]int
}

// claimant is the claim a provenance run credits an admission to: the
// parent's entry and the pid that stepped it, and the admitted entry's key.
type claimant struct {
	key    string
	parent entry
	pid    int32
}

// engineRun carries the per-run state both exploration orders share: the
// instance, the callbacks, the store, the per-worker expanders, the
// admission counters and the stop signal.
type engineRun struct {
	p          model.Protocol
	start      *model.Config
	allowed    []bool // allowed[pid]: pid is in the explored set
	nObj       int
	nProc      int
	opts       EngineOptions
	limits     ExploreLimits
	visit      func(worker int, n *Node) error
	afterLevel func(depth, processed int) (stop bool)
	began      time.Time

	// pathsOn maintains every node's root-to-node pid path: set for
	// provenance runs (the path is the witness schedule), checkpointing
	// runs (paths are how frontiers persist) and distributed runs (paths
	// are the wire records' replay fallback and how peers ship replayable
	// violation witnesses to the coordinator).
	pathsOn bool
	// link is the distributed peer link (nil for single-process runs) and
	// remat what rebuilds the nodes of the records it delivers.
	link  DistLink
	remat *rematerialiser
	// plan is the refined symmetry plan (nil or inactive: no quotient).
	plan      *reductionPlan
	expanders []*expander
	store     *spillStore
	claims    claimState
	nodePool  *sync.Pool
	asyncOn   bool

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
				if err = r.visit(w, n); err == nil {
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
			r.recycle(n)
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

// newNode hands out a recycled (or fresh) node with correctly-shaped
// buffers.
func (r *engineRun) newNode() *Node {
	if hook := nodeTakenHook; hook != nil {
		hook()
	}
	return r.nodePool.Get().(*Node)
}

// recycle returns the buffers of a node nothing refers to any more — a
// visited and expanded frontier node, a spooled, revoked or truncated
// admission, a node rebuilt only to be replaced — to the pool.
func (r *engineRun) recycle(n *Node) {
	if r.closed.Load() && r.store.budget == 0 {
		// A closed run builds no more nodes. One parked in the pool would
		// outlive the run by two collections; left alone it is garbage now.
		// (A spooled frontier is the exception: the closed run's last level
		// is still to be rematerialised from disk, into pooled nodes.)
		return
	}
	n.key = ""
	n.reexpand = false
	r.nodePool.Put(n)
}

// rootNode returns a depth-0 node holding the start configuration,
// slot-hashed through st and not yet keyed.
func (r *engineRun) rootNode(st *model.Stepper) *Node {
	n := r.newNode()
	n.Cfg.CopyFrom(r.start)
	n.Depth, n.Pid = 0, -1
	n.path = n.path[:0]
	n.slotFP = st.InitSlots(n.Cfg, n.slotH)
	return n
}

// RunFrontier explores the pids-only reachable space of p from start with
// the sharded frontier engine. visit is called exactly once per distinct
// admitted configuration, concurrently from workers (worker indices are
// 0..Workers-1, for per-worker accumulators); afterLevel, if non-nil, is
// called at each level barrier and may stop the run early. start is not
// mutated. A visit error or an illegal poised operation aborts the run.
func RunFrontier(p model.Protocol, start *model.Config, pids []int, limits ExploreLimits, opts EngineOptions,
	visit func(worker int, n *Node) error,
	afterLevel func(depth, processed int) (stop bool),
) (rstats RunStats, rerr error) {
	limits = limits.withDefaults()
	opts = opts.withDefaults()
	asyncOn, symOn, err := Modes{Order: opts.Order, Reduction: opts.Reduction, Store: opts.Store, StringKeys: opts.StringKeys,
		Provenance: opts.Provenance, Checkpoint: opts.Checkpoint != "", Dist: opts.Dist != nil}.resolve()
	if err != nil {
		return RunStats{}, err
	}

	nObj := len(p.Objects())
	nProc := p.NumProcesses()
	if len(start.Objects) != nObj || len(start.States) != nProc {
		return RunStats{}, fmt.Errorf("frontier engine: start configuration has %d objects and %d states, protocol declares %d and %d",
			len(start.Objects), len(start.States), nObj, nProc)
	}
	pathsOn := opts.Provenance || opts.Checkpoint != "" || opts.Dist != nil
	if pathsOn && nProc > 255 {
		return RunStats{}, fmt.Errorf("frontier engine: provenance, checkpointed and distributed runs support at most 255 processes (root-to-node paths store one pid byte per step), protocol declares %d", nProc)
	}

	run := &engineRun{
		p: p, start: start, nObj: nObj, nProc: nProc,
		allowed: make([]bool, nProc),
		opts:    opts, limits: limits, visit: visit, afterLevel: afterLevel,
		began:     time.Now(),
		pathsOn:   pathsOn,
		asyncOn:   asyncOn,
		link:      opts.Dist,
		expanders: make([]*expander, opts.Workers),
		done:      make(chan struct{}),
		nodePool: &sync.Pool{New: func() any {
			// The node and its configuration header are one allocation:
			// they are handed out, recycled and collected together.
			b := &struct {
				n   Node
				cfg model.Config
			}{cfg: model.Config{
				Objects: make([]model.Value, nObj),
				States:  make([]model.State, nProc),
			}}
			b.n.Cfg = &b.cfg
			b.n.slotH = make([]uint64, nObj+nProc)
			return &b.n
		}},
	}
	for _, pid := range pids {
		if pid >= 0 && pid < nProc {
			run.allowed[pid] = true
		}
	}

	if opts.Provenance {
		cl := &run.claims
		cl.pending, cl.pendingExact = map[uint64]claimant{}, map[string]claimant{}
		cl.overrides, cl.settled = map[entry][]byte{}, map[entry][]byte{}
	}
	if asyncOn && limits.MaxDepth > 0 {
		run.claims.depth = map[uint64]int{}
	}
	sctx := storeCtx{
		workers:    opts.Workers,
		nObj:       nObj,
		nProc:      nProc,
		stringKeys: opts.StringKeys,
		newNode:    run.newNode,
		recycle:    run.recycle,
		fail:       run.fail,
		stopped:    run.doneFlag.Load,
	}
	budget := int64(0) // StoreMem: none
	switch opts.Store {
	case StoreMem:
	case StoreSpill:
		if budget = opts.MemBudget; budget <= 0 {
			budget = DefaultMemBudget
		}
	default:
		return RunStats{}, fmt.Errorf("frontier engine: unknown store %q (have %q, %q)", opts.Store, StoreMem, StoreSpill)
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
				rstats.Reduction.OrbitHits += x.sw.orbitHits
			}
		}
		if run.link != nil {
			rstats.Net = run.link.NetStats()
		}
	}()

	// Root node. The reduction plan refines the declared symmetry classes
	// against the root's slot hashes and the explored pid set, so it sits
	// between hashing the root and keying it.
	root := run.rootNode(run.expander(0).st)
	if symOn {
		run.plan = planReduction(p, run.allowed, nObj, root.slotH)
	}
	run.expander(0).key(root)

	if run.link != nil {
		run.link.Start(opts.Workers)
		st := model.NewStepper(p)
		run.remat = &rematerialiser{ctx: sctx, exch: model.NewSlotExchange(),
			replay: func(path []byte) (*Node, error) { return replayPath(run, st, path) }}
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
