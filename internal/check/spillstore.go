package check

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/model"
)

// spillStore is the disk-spilling state store: it bounds the resident
// memory of an exploration by a byte budget and lets the reachable space
// be limited by disk (and time) instead of RAM.
//
// Deduplication — delayed duplicate detection over sorted runs:
//
//   - The store keeps a resident *delta* table (a keyedSet) holding the
//     visited entries admitted since the last spill. Candidates are
//     checked against the delta only, so the per-candidate cost matches
//     the in-memory store.
//
//   - When the delta's size exceeds the budget at a level barrier, it is
//     flushed to a new *sorted run* file — an entry stream (entry.go), the
//     layout a checkpoint's visited snapshot is written in — and cleared.
//     A configuration visited before the spill is no longer resident, so a
//     later re-encounter is admitted *tentatively*.
//
//   - EndLevel resolves the tentative admissions: it stream-merges the
//     level's sorted admissions against the sorted runs (the k-way merge
//     of external-memory model checking) and revokes the ones already on
//     disk. The surviving set is exactly what the in-memory store admits,
//     so results are store-independent.
//
//   - A compact Bloom prefilter (bloom.go) fronts those run-file probes:
//     every spilled fingerprint is added to the filter, so an admission
//     the filter rejects provably appears in no run and skips the barrier
//     merge outright. Only bloom-positive admissions — the probable
//     duplicates, counted as prefilter_hits — pay for exact run probes. In
//     the common mostly-fresh BFS level this removes nearly all merge
//     traffic; a saturated filter only degrades back to probing
//     everything, never to a wrong answer.
//
//   - When runFanout runs have accumulated, they are k-way merged into
//     one (dropping duplicate entries), keeping per-level merge cost
//     proportional to the spilled volume, not the run count.
//
// Frontier queuing — spooled segments:
//
//   - Admitted nodes are immediately serialised as node records
//     (noderec.go, the record a distributed run puts on the wire) into the
//     admitting worker's segment file and their buffers recycled, so
//     frontier memory is O(chunk), not O(level). A segment is a sequence
//     of blocks, uvarint length | records, each about artifactBlock bytes:
//     the next level's workers claim a block at a time under the source's
//     lock and decode it outside, skipping records revoked or truncated at
//     the barrier. Per-slot canonical Values/States cannot be rebuilt from
//     bytes alone, so the store interns every slot encoding it spools in
//     the rematerialiser's exchange — resident memory that grows with
//     *distinct slot encodings*, the same asymptotics as the steppers'
//     arenas, typically far below the configuration count.
//
//   - Runs that must retain nodes in RAM (EngineOptions.Provenance: parent
//     chains stay live for witness replay) keep the frontier resident and
//     spill only the dedup state.
//
// Both files are artifacts (artifact.go): checksummed, published by
// rename, and wiped by the next open of the directory — nothing outlives
// the run that wrote it, which is what leaves their layouts free to change.
//
// Determinism: the admitted set, the budget-truncation survivors (chosen
// by ascending (fingerprint, key), the engine's canonical order) and all
// level barriers are pure functions of the protocol and limits — the
// existing seq-vs-parallel and determinism suites run against this store
// unchanged.
type spillStore struct {
	ctx     storeCtx
	dir     string
	ownsDir bool
	budget  int64
	seq     int          // levels ended so far; names the level's segment files
	queues  []spillQueue // per worker
	remat   rematerialiser
	source  *spillSource // last handed-out streaming source (for Close)

	// delta holds the entries admitted since the last spill.
	delta keyedSet

	// bloom summarizes every fingerprint spilled so far (created at the
	// first spill); admissions it proves fresh skip the barrier's run-file
	// merge. It and the runs change only at barriers and seeding, so
	// claims read it without a lock of their own. prefilterHits counts the
	// bloom-positive admissions — the probable duplicates routed to exact
	// probes.
	bloom         *bloomFilter
	prefilterHits int64

	// This level's tentative admissions, in claim order, and which of them
	// the barrier merge found on disk.
	level []spillEntry
	dead  []bool

	runs   []spillRun
	runSeq int

	// stats moves only at barriers and seeding.
	stats StoreStats

	// err is the first I/O or decode failure, boxed like engineRun's.
	err atomic.Pointer[error]
}

// spillQueue is one worker's share of the next frontier: the nodes
// themselves (retain mode), or the segment they are spooled to. Which
// worker queued a node says nothing about where its entry sits in the
// level's admissions; what the barrier revokes or truncates it therefore
// names by entry (spillSource.drop), as the spooled source always has.
type spillQueue struct {
	next  []*Node      // retain mode only
	spool *blockWriter // this level's segment; nil until a node is spooled
	spans [][]byte     // slot-span scratch
	_     [16]byte     // a cache line per worker
}

// spillEntry is one of a level's admissions. fresh marks entries the Bloom
// prefilter proved absent from every spilled run at admission time — they
// skip the barrier merge (they cannot be delayed duplicates).
type spillEntry struct {
	entry
	fresh bool
}

// spillRun is one sorted run file. verified records that the file passed
// a full checksum pass before a consumer that may stop reading early
// (the barrier merge) first opened it.
type spillRun struct {
	path     string
	verified bool
}

// runFanout is the run-count threshold that triggers a compaction merge.
const runFanout = 8

func newSpillStore(ctx storeCtx, budget int64, dir string) (*spillStore, error) {
	if budget <= 0 {
		budget = DefaultMemBudget
	}
	ownsDir := false
	if dir == "" {
		d, err := os.MkdirTemp("", "repro-spill-*")
		if err != nil {
			return nil, fmt.Errorf("spill store: %w", err)
		}
		dir, ownsDir = d, true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill store: %w", err)
	} else {
		// A previous process may have died here: unpublished *.tmp files
		// and published runs/segments from the dead run are garbage (the
		// visited set is rebuilt from scratch or from a checkpoint, never
		// from a dead process's spill files).
		removeStaleArtifacts(dir, "run-", "seg-")
	}
	s := &spillStore{ctx: ctx, dir: dir, ownsDir: ownsDir, budget: budget,
		queues: make([]spillQueue, ctx.workers), stats: StoreStats{Kind: StoreSpill},
		delta: newKeyedSet(ctx.stringKeys),
		remat: rematerialiser{ctx: ctx, exch: model.NewSlotExchange()}}
	return s, nil
}

func (s *spillStore) fail(err error) { s.err.CompareAndSwap(nil, &err) }

func (s *spillStore) takeErr() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *spillStore) Claim(fp uint64, key []byte) (string, bool) {
	stored, added := s.delta.claim(fp, key)
	if !added {
		return "", false
	}
	// Prefilter verdict: a fingerprint the bloom has never seen appears
	// in no spilled run (the filter has no false negatives; in exact-key
	// mode an absent fingerprint implies the (fp, key) pair is absent
	// too), so the admission is final and skips the barrier merge.
	fresh := s.bloom == nil || !s.bloom.has(fp)
	s.level = append(s.level, spillEntry{entry{fp, stored}, fresh})
	if !fresh {
		s.prefilterHits++
	}
	return stored, true
}

func (s *spillStore) Queue(worker int, n *Node) bool {
	if s.ctx.retain {
		q := &s.queues[worker]
		q.next = append(q.next, n)
		return true
	}
	if err := s.spoolNode(&s.queues[worker], worker, n); err != nil {
		s.fail(err)
	}
	return false
}

// spoolNode appends n's record to worker's segment, interning every slot
// encoding in the exchange so the node can be rematerialised.
func (s *spillStore) spoolNode(q *spillQueue, worker int, n *Node) error {
	if q.spool == nil {
		w, err := newBlockWriter(filepath.Join(s.dir, fmt.Sprintf("seg-%d-w%d", s.seq, worker)), artifactSegment, true)
		if err != nil {
			return fmt.Errorf("spill store: %w", err)
		}
		q.spool = w
	}
	var enc []byte
	q.spool.buf, enc = AppendNodeRecord(q.spool.buf, n)
	spans, err := model.SlotSpans(enc, s.ctx.nObj, s.ctx.nProc, q.spans)
	if err != nil {
		return fmt.Errorf("spill store: %w", err)
	}
	q.spans = spans
	s.remat.exch.Intern(n.Cfg, spans, s.ctx.nObj)
	if err := q.spool.flushFull(); err != nil {
		return fmt.Errorf("spill store: segment write: %w", err)
	}
	return nil
}

func (s *spillStore) EndLevel(maxNext int) (LevelResult, error) {
	if err := s.takeErr(); err != nil {
		return LevelResult{}, err
	}

	// Publish the level's segment files before anything can read them.
	segs := make([]string, len(s.queues))
	for i := range s.queues {
		q := &s.queues[i]
		if q.spool != nil {
			w := q.spool
			q.spool = nil
			written, err := w.finish()
			if err != nil {
				return LevelResult{}, fmt.Errorf("spill store: segment finish: %w", err)
			}
			s.stats.BytesSpilled += written
			segs[i] = w.path
		}
	}

	// Delayed duplicate detection: merge the level's sorted admissions
	// against the sorted runs and revoke the ones already visited before
	// the last spill.
	revoked, err := s.markDead()
	if err != nil {
		return LevelResult{}, err
	}
	survivors := len(s.level) - revoked

	// Budget cutoff, by the engine's canonical (fingerprint, key) order.
	// Entries are globally unique (dedup guarantees it), so the cutoff
	// entry cleanly separates survivors from drops.
	truncated := survivors > maxNext
	var cutoff entry
	if truncated && maxNext > 0 {
		all := make([]entry, 0, survivors)
		for j, e := range s.level {
			if !s.dead[j] {
				all = append(all, e.entry)
			}
		}
		slices.SortFunc(all, entryCompare)
		cutoff = all[maxNext-1]
	}
	kept := survivors
	if truncated {
		kept = maxNext
	}

	// What the barrier revoked or truncated (nil: nothing).
	var drop *keyedSet
	for j, e := range s.level {
		if !s.dead[j] && !(truncated && (maxNext == 0 || entryLess(cutoff, e.entry))) {
			continue
		}
		if drop == nil {
			d := newKeyedSet(s.ctx.stringKeys)
			drop = &d
		}
		drop.add(e.fp, e.key)
	}

	res := LevelResult{Revoked: revoked, Truncated: truncated}
	if s.ctx.retain {
		next := make([]*Node, 0, kept)
		for i := range s.queues {
			q := &s.queues[i]
			for _, n := range q.next {
				if drop != nil && drop.has(n.fp, n.key) {
					// Revoked and truncated nodes are unreferenced even
					// in provenance runs (nothing expanded them, and
					// pending claims only ever mutated them), so their
					// buffers go straight back to the pool.
					s.ctx.recycle(n)
					continue
				}
				next = append(next, n)
			}
			clear(q.next)
			q.next = q.next[:0]
		}
		res.Frontier = &memSource{nodes: next}
	} else {
		src := &spillSource{store: s, size: kept, segs: segs, drop: drop,
			readers: make([]*artifactScanner, len(segs))}
		s.source = src
		for i, seg := range segs {
			if seg == "" {
				continue
			}
			r, err := scanArtifact(seg, artifactSegment)
			if err != nil {
				return LevelResult{}, fmt.Errorf("spill store: %w", err)
			}
			// Unlink immediately: the open descriptor keeps the data
			// readable and the file is reclaimed even if the source
			// is abandoned mid-level.
			os.Remove(seg)
			src.readers[i] = r
		}
		res.Frontier = src
	}

	// Reset per-level state and apply the byte budget: when the resident
	// delta exceeds it, flush it to a fresh sorted run and compact once
	// runFanout runs have accumulated. The Bloom prefilter counts toward
	// the reported peak (it is resident memory) but not toward the spill
	// trigger: spilling cannot shrink a filter, so triggering on its
	// constant footprint would only force a futile delta flush at every
	// subsequent barrier.
	s.level = s.level[:0]
	s.dead = s.dead[:0]
	s.foldPeak()
	if s.delta.bytes() > s.budget {
		if err := s.spillDelta(); err != nil {
			return LevelResult{}, err
		}
	}

	s.seq++
	return res, nil
}

// markDead stream-merges the level's sorted admissions against each sorted
// run, marking entries already present on disk, and returns how many it
// marked. Admissions the Bloom prefilter proved fresh are excluded up
// front — they cannot appear in any run — so the merge (and the run I/O
// it drives) costs only the bloom-positive suspects. It reads runs
// sequentially and stops each as soon as the suspect list is exhausted.
func (s *spillStore) markDead() (int, error) {
	for len(s.dead) < len(s.level) {
		s.dead = append(s.dead, false)
	}
	if len(s.level) == 0 || len(s.runs) == 0 {
		return 0, nil
	}
	order := make([]int, 0, len(s.level))
	for i, e := range s.level {
		if !e.fresh {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		return 0, nil
	}
	slices.SortFunc(order, func(i, j int) int { return entryCompare(s.level[i].entry, s.level[j].entry) })

	for i := range s.runs {
		if err := s.mergeMark(&s.runs[i], order); err != nil {
			return 0, err
		}
	}
	dead := 0
	for _, d := range s.dead {
		if d {
			dead++
		}
	}
	return dead, nil
}

func (s *spillStore) mergeMark(run *spillRun, order []int) error {
	// The merge stops as soon as the suspect list is exhausted, so EOF's
	// streaming checksum may never run; verify the whole file once at
	// first open instead (a corrupt run must fail loudly — silently
	// dropping it would skip delayed-duplicate revocations and could
	// change the verdict).
	if !run.verified {
		if err := verifyArtifact(run.path, artifactRun); err != nil {
			return err
		}
		run.verified = true
	}
	r, err := openEntries(run.path, artifactRun)
	if err != nil {
		return fmt.Errorf("spill store: %w", err)
	}
	defer r.close()
	for idx := 0; idx < len(order); {
		e, ok, err := r.next()
		if err != nil || !ok {
			return err
		}
		for idx < len(order) && entryLess(s.level[order[idx]].entry, e) {
			idx++
		}
		if idx < len(order) && s.level[order[idx]].entry == e {
			s.dead[order[idx]] = true
			idx++
		}
	}
	return nil // admissions exhausted; rest of the run is irrelevant
}

// newRun opens the next sorted-run file for writing.
func (s *spillStore) newRun() (*blockWriter, error) {
	w, err := newBlockWriter(filepath.Join(s.dir, fmt.Sprintf("run-%d", s.runSeq)), artifactRun, false)
	if err != nil {
		return nil, fmt.Errorf("spill store: %w", err)
	}
	s.runSeq++
	return w, nil
}

// publishRun seals a fully written run; it replaces the runs there are
// when replaces is set (a compaction) and joins them otherwise.
func (s *spillStore) publishRun(w *blockWriter, replaces bool) error {
	written, err := w.finish()
	if err != nil {
		return fmt.Errorf("spill store: run finish: %w", err)
	}
	if replaces {
		for i := range s.runs {
			os.Remove(s.runs[i].path)
		}
		s.stats.RunsMerged += len(s.runs)
		s.runs = s.runs[:0]
	}
	s.stats.BytesSpilled += written
	s.stats.RunsWritten++
	s.runs = append(s.runs, spillRun{path: w.path})
	return nil
}

// spillDelta flushes the resident delta to a new sorted run and clears it,
// then compacts when runFanout runs have accumulated.
func (s *spillStore) spillDelta() error {
	entries := s.delta.drain()
	if len(entries) == 0 {
		return nil
	}
	// Summarize the flushed fingerprints in the prefilter before they
	// leave RAM. The filter is sized once from the byte budget (~1/4 of
	// it, ~1% false positives for the first few flushes); overfilling it
	// only raises the false-positive rate — more barrier merge work,
	// never a wrong verdict — so it is never rebuilt.
	if s.bloom == nil {
		s.bloom = newBloomFilter(s.budget / 5)
	}
	for _, e := range entries {
		s.bloom.add(e.fp)
	}
	slices.SortFunc(entries, entryCompare)

	w, err := s.newRun()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := w.addEntry(e.fp, e.key); err != nil {
			w.abort()
			return fmt.Errorf("spill store: run write: %w", err)
		}
	}
	// Crash point: the sorted run is fully written but not yet renamed
	// into place — the delta it snapshots dies with the process.
	fault.Crash(fault.CrashSpillRunWrite)
	if err := s.publishRun(w, false); err != nil {
		return err
	}
	if len(s.runs) >= runFanout {
		return s.compact()
	}
	return nil
}

// compact k-way merges all the runs into one, dropping duplicate entries (a
// fingerprint re-admitted after a spill appears in two runs until
// compaction unifies them).
func (s *spillStore) compact() error {
	readers := make([]*entryReader, len(s.runs))
	heads := make([]entry, len(s.runs))
	live := make([]bool, len(s.runs))
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.close()
			}
		}
	}()
	for i, run := range s.runs {
		r, err := openEntries(run.path, artifactRun)
		if err != nil {
			return fmt.Errorf("spill store: %w", err)
		}
		readers[i] = r
		if heads[i], live[i], err = r.next(); err != nil {
			return err
		}
	}

	w, err := s.newRun()
	if err != nil {
		return err
	}
	haveLast := false
	var last entry
	for {
		min, found := -1, false
		for i := range heads {
			if live[i] && (!found || entryLess(heads[i], heads[min])) {
				min, found = i, true
			}
		}
		if !found {
			break
		}
		e := heads[min]
		if heads[min], live[min], err = readers[min].next(); err != nil {
			w.abort()
			return err
		}
		if haveLast && last == e {
			continue
		}
		if err := w.addEntry(e.fp, e.key); err != nil {
			w.abort()
			return fmt.Errorf("spill store: run write: %w", err)
		}
		last, haveLast = e, true
	}
	// Crash point: the merged run is complete but unpublished and the
	// input runs are still in place.
	fault.Crash(fault.CrashSpillRunMerge)
	return s.publishRun(w, true)
}

// foldPeak raises the resident high-water mark to the current footprint:
// the delta table plus the Bloom prefilter. It runs at every barrier and
// around every flush of a checkpoint seed.
func (s *spillStore) foldPeak() {
	resident := s.delta.bytes()
	if s.bloom != nil {
		resident += s.bloom.bytes()
	}
	s.stats.PeakResidentBytes = max(s.stats.PeakResidentBytes, resident)
}

func (s *spillStore) Stats() StoreStats {
	out := s.stats
	out.PrefilterHits = s.prefilterHits
	return out
}

func (s *spillStore) Close() error {
	for i := range s.queues {
		if w := s.queues[i].spool; w != nil {
			w.abort()
			s.queues[i].spool = nil
		}
	}
	if s.source != nil {
		s.source.closeAll()
		s.source = nil
	}
	var cleanupErr error
	if s.ownsDir {
		cleanupErr = os.RemoveAll(s.dir)
	} else {
		// Caller-provided directory: remove only our files.
		for _, run := range s.runs {
			os.Remove(run.path)
		}
		s.runs = nil
	}
	// Surface any latched I/O error that never reached an EndLevel —
	// e.g. a segment read failing during the run's final (depth-capped
	// or early-stopped) level, after the last barrier. The engine's
	// deferred Close turns it into the run error, so a short read can
	// never masquerade as a clean, complete result.
	if err := s.takeErr(); err != nil {
		return err
	}
	return cleanupErr
}

// ---- streaming frontier source ----

// spillSource streams a level's spooled frontier back to the engine
// workers: a block of records is claimed under a short lock, decoding
// (exchange lookups, slot-hash recomputation) happens outside it.
type spillSource struct {
	store *spillStore
	size  int
	segs  []string // the workers' segment paths, for error reports
	// drop holds the admissions revoked or truncated at the barrier (nil:
	// none); read-only once the source is handed out.
	drop *keyedSet

	mu      sync.Mutex
	cur     int
	readers []*artifactScanner
	partial []*segBlock // claimed blocks handed back with records left

	pool sync.Pool
}

// segBlock is one claimed block of segment seg, decoded as far as off.
type segBlock struct {
	seg   int
	data  []byte
	off   int
	spans [][]byte // slot-span scratch of whoever holds the block
}

// next decodes the block's next record. One that does not decode is
// corruption the segment's checksum, verified only at its end, has yet to
// report; the segment (seg) is unlinked once open, so there is nothing to
// quarantine.
func (b *segBlock) next(seg string) (NodeRecord, error) {
	rec, rest, err := DecodeNodeRecord(b.data[b.off:])
	if err != nil {
		return rec, &CorruptArtifactError{Path: seg, Reason: err.Error()}
	}
	b.off = len(b.data) - len(rest)
	return rec, nil
}

func (s *spillSource) Size() int { return s.size }

func (s *spillSource) Next(buf []*Node) int {
	n := 0
	// After any read or decode failure the stream positions are not
	// trustworthy; hand out nothing more and let the latched error
	// surface at the next barrier (or at Close).
	for n == 0 && s.store.takeErr() == nil {
		b := s.claim()
		if b == nil {
			break
		}
		for n < len(buf) && b.off < len(b.data) {
			node, err := s.decode(b)
			if err != nil {
				s.store.fail(err)
				b.off = len(b.data) // abandon the block
			} else if node != nil {
				buf[n] = node
				n++
			}
		}
		if b.off == len(b.data) {
			s.pool.Put(b)
			continue
		}
		s.mu.Lock()
		s.partial = append(s.partial, b)
		s.mu.Unlock()
	}
	return n
}

// claim hands out a block with records left to decode — one handed back
// by a caller whose buffer filled first, else the next block of the
// segments, read here under the lock — or nil when there is none.
func (s *spillSource) claim() *segBlock {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k := len(s.partial); k > 0 {
		b := s.partial[k-1]
		s.partial = s.partial[:k-1]
		return b
	}
	for ; s.cur < len(s.readers); s.cur++ {
		r := s.readers[s.cur]
		if r == nil {
			continue
		}
		b, _ := s.pool.Get().(*segBlock)
		if b == nil {
			b = &segBlock{}
		}
		var err error
		if b.data, err = r.blob(b.data); err == nil {
			b.seg, b.off = s.cur, 0
			return b
		}
		// The segment is exhausted, or unreadable: then its stream position
		// is misaligned and another read could hand back garbage records.
		s.pool.Put(b)
		r.close()
		s.readers[s.cur] = nil
		if err != io.EOF {
			s.store.fail(fmt.Errorf("spill store: segment read: %w", err))
			return nil
		}
	}
	return nil
}

// decode rebuilds the next record of b, or returns nil for one dropped at
// the barrier. Entries are unique per level, so the fingerprint (or, under
// exact keys, the encoding) identifies the record. Every span a spooled
// node carries was interned when it was spooled, so a miss is corruption.
func (s *spillSource) decode(b *segBlock) (*Node, error) {
	rec, err := b.next(s.segs[b.seg])
	if err != nil {
		return nil, err
	}
	key := ""
	if s.store.ctx.stringKeys {
		key = string(rec.Enc)
	}
	if s.drop != nil && s.drop.has(rec.FP, key) {
		return nil, nil
	}
	n, spans, err := s.store.remat.node(rec, b.spans)
	b.spans = spans
	if err != nil {
		return nil, &CorruptArtifactError{Path: s.segs[b.seg], Reason: err.Error()}
	}
	n.key = key
	return n, nil
}

func (s *spillSource) closeAll() {
	s.mu.Lock()
	for i, r := range s.readers {
		if r != nil {
			r.close()
			s.readers[i] = nil
		}
	}
	s.cur, s.partial = len(s.readers), nil
	s.mu.Unlock()
}

// ---- checkpoint support ----

// DumpVisited emits the resident delta and then every spilled run; an
// entry spilled and re-admitted since comes twice.
func (s *spillStore) DumpVisited(emit func(fp uint64, key string) error) error {
	if err := s.delta.forEach(emit); err != nil {
		return err
	}
	for _, run := range s.runs {
		r, err := openEntries(run.path, artifactRun)
		if err != nil {
			return err
		}
		err = r.each(emit)
		r.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// SeedVisited loads the snapshot under the byte budget: the delta takes
// entries up to the budget, is flushed to a sorted run like any over-budget
// delta, and starts over, so a resumed run holds no more of the visited
// set resident than the run that wrote the snapshot did. Every fresh delta
// table is sized for what it will take before it takes it (a mem-store
// snapshot arrives in table order).
func (s *spillStore) SeedVisited(fps []uint64, keys []string) error {
	// The budget, floored at a delta table's initial footprint (2,048
	// slots) so tiny budgets batch flushes instead of spilling every entry.
	budget := max(s.budget, 16<<10)
	room := 0 // entries the current delta table still takes
	for i, fp := range fps {
		left := len(fps) - i // entries still to come, this one included
		if room == 0 {
			room = s.delta.reserve(left, budget)
		}
		key := ""
		if keys != nil {
			key = keys[i]
		}
		s.delta.add(fp, key)
		room--
		// The delta has reached the budget.
		if (room == 0 || s.delta.bytes() > budget) && left > 1 {
			s.foldPeak()
			if err := s.spillDelta(); err != nil {
				return err
			}
			room = 0
		}
	}
	s.foldPeak()
	return nil
}
