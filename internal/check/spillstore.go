package check

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/model"
)

// spillStore is the frontier engine's one state store (store.go): the
// visited set and the next level's queue, resident in RAM until a byte
// budget says otherwise, so the reachable space can be bounded by disk (and
// time) instead of RAM.
//
// Without a budget (Store "" or "mem") it never leaves RAM: the delta
// table below is the whole visited set, a claim is one probe of it, a
// queued node one append to its worker's slice, and a barrier concatenates
// the slices and cuts them back to the level's budget by sortNodes. It
// records no admission list, creates no directory and writes no file.
//
// Under a budget (Store "spill") two things leave RAM.
//
// Deduplication — delayed duplicate detection over sorted runs:
//
//   - The resident *delta* table (a keyedSet) holds the visited entries
//     admitted since the last spill. Candidates are checked against the
//     delta only, so a claim costs what it costs without a budget.
//
//   - When the delta's size exceeds the budget at a level barrier, it is
//     flushed to a new *sorted run* file — an entry stream (entry.go), the
//     layout a checkpoint's visited snapshot is written in — and cleared.
//     A configuration visited before the spill is no longer resident, so a
//     later re-encounter is admitted *tentatively*.
//
//   - From the first run on, the store records each level's admissions and
//     EndLevel resolves the tentative ones: it stream-merges them, sorted,
//     against the sorted runs (the k-way merge of external-memory model
//     checking) and revokes the ones already on disk. The surviving set is
//     exactly what an unbudgeted run admits, so results are
//     budget-independent.
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
//     arenas, typically far below the configuration count. A provenance
//     run's records carry each node's path as admitted; the engine patches
//     in the path of the claim that won the node as it hands the node out.
//
// Both files are artifacts (artifact.go): checksummed, published by
// rename, and wiped by the next open of the directory — nothing outlives
// the run that wrote it, which is what leaves their layouts free to change.
// A budgeted store opens the directory when it is created.
//
// An I/O or decode failure goes to the run's one error cell
// (storeCtx.fail), which stops the workers at their next node boundary.
//
// Determinism: the admitted set, the budget-truncation survivors (chosen
// by ascending (fingerprint, key), the engine's canonical order) and all
// level barriers are pure functions of the protocol and limits, whatever
// the budget.
type spillStore struct {
	ctx     storeCtx
	budget  int64 // resident-byte budget; 0: none, and nothing leaves RAM
	dir     string
	ownsDir bool
	seq     int          // levels ended so far; names the level's segment files
	queues  []spillQueue // per worker
	remat   rematerialiser
	source  *spillSource // last handed-out streaming source (for Close)

	// delta holds the entries admitted since the last spill.
	delta keyedSet

	// bloom summarizes every fingerprint spilled so far (created at the
	// first spill); admissions it proves fresh skip the barrier's run-file
	// merge. It and the runs change only at barriers and seeding, so
	// claims read it without a lock of their own.
	bloom *bloomFilter

	// This level's tentative admissions, in claim order, and which of them
	// the barrier merge found on disk. Recorded only under a budget.
	level []spillEntry
	dead  []bool

	runs   []spillRun
	runSeq int

	// stats moves at barriers and seeding, and PrefilterHits under the
	// claim lock.
	stats StoreStats
}

// spillQueue is one worker's share of the next frontier: the nodes
// themselves (no budget), or the segment they are spooled to. Which
// worker queued a node says nothing about where its entry sits in the
// level's admissions; what the barrier revokes or truncates it therefore
// names by entry (spillSource.drop).
type spillQueue struct {
	next  []*Node      // unbudgeted store only
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

// newSpillStore opens a store under a resident-byte budget (<= 0: none),
// keeping its files in dir ("" = a fresh directory under os.TempDir,
// removed by Close). Without a budget it touches no disk.
func newSpillStore(ctx storeCtx, budget int64, dir string) (*spillStore, error) {
	s := &spillStore{ctx: ctx, budget: max(budget, 0), dir: dir,
		queues: make([]spillQueue, ctx.workers), stats: StoreStats{Kind: StoreMem},
		delta: newKeyedSet(ctx.stringKeys)}
	if s.budget == 0 {
		return s, nil
	}
	s.stats.Kind = StoreSpill
	s.remat = rematerialiser{ctx: ctx, exch: model.NewSlotExchange()}
	// Workers spool concurrently, so the directory is opened before the
	// first of them (the root, queued at once) needs it.
	if s.dir == "" {
		d, err := os.MkdirTemp("", "repro-spill-*")
		if err != nil {
			return nil, fmt.Errorf("spill store: %w", err)
		}
		s.dir, s.ownsDir = d, true
	} else if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill store: %w", err)
	} else {
		// A previous process may have died here: unpublished *.tmp files
		// and published runs/segments from the dead run are garbage (the
		// visited set is rebuilt from scratch or from a checkpoint, never
		// from a dead process's spill files).
		removeStaleArtifacts(s.dir, "run-", "seg-")
	}
	return s, nil
}

// Claim records the entry (fp, key) as visited and reports whether it was
// absent — the admission decision, taken on the entry alone, before any
// node for it exists. key is nil outside exact-key runs; it may be
// scratch, and stored is the copy the store keeps, for the admitted node
// to share. Calls must not overlap (the engine holds the claim lock).
func (s *spillStore) Claim(fp uint64, key []byte) (string, bool) {
	stored, added := s.delta.claim(fp, key)
	if !added || s.budget == 0 {
		return stored, added
	}
	// Prefilter verdict: a fingerprint the bloom has never seen appears
	// in no spilled run (the filter has no false negatives; in exact-key
	// mode an absent fingerprint implies the (fp, key) pair is absent
	// too), so the admission is final and skips the barrier merge.
	fresh := s.bloom == nil || !s.bloom.has(fp)
	s.level = append(s.level, spillEntry{entry{fp, stored}, fresh})
	if !fresh {
		s.stats.PrefilterHits++
	}
	return stored, true
}

// Queue queues n, whose entry this level's Claim admitted, for the next
// level on worker's queue (calls for one worker must not overlap). A node
// spooled to disk is recycled at once: its content is in the segment.
func (s *spillStore) Queue(worker int, n *Node) {
	if s.budget == 0 {
		q := &s.queues[worker]
		q.next = append(q.next, n)
		return
	}
	if err := s.spoolNode(&s.queues[worker], worker, n); err != nil {
		s.ctx.fail(err)
	}
	s.ctx.recycle(n)
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

// EndLevel runs at the level barrier: it resolves delayed duplicates,
// enforces the budget cutoff (at most maxNext admissions survive, chosen by
// ascending (fingerprint, key) — the engine's deterministic truncation
// order), spills the delta if it is over budget, and returns the next
// level's frontier.
func (s *spillStore) EndLevel(maxNext int) (LevelResult, error) {
	if s.budget == 0 {
		return s.endResident(maxNext), nil
	}
	res, err := s.endSpooled(maxNext)
	if err != nil {
		return LevelResult{}, err
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

// endResident ends a level of the unbudgeted store, which never writes a
// run and so has no delayed duplicate to revoke: it concatenates the
// workers' queues and cuts them back to maxNext by sortNodes. The store
// has nothing else to do at the barrier.
func (s *spillStore) endResident(maxNext int) LevelResult {
	total := 0
	for i := range s.queues {
		total += len(s.queues[i].next)
	}
	next := make([]*Node, 0, total)
	for i := range s.queues {
		q := &s.queues[i]
		next = append(next, q.next...)
		clear(q.next)
		q.next = q.next[:0]
	}

	var res LevelResult
	// Budget cutoff: this level may have overshot (admission is
	// unthrottled within a level so the admitted set stays a pure function
	// of the space, not of thread timing). Truncate back to exactly maxNext
	// survivors by ascending (fingerprint, key) — deterministic regardless
	// of arrival order.
	if len(next) > maxNext {
		sortNodes(next)
		// The engine closes admissions on a truncation, so the dropped
		// nodes' buffers have no taker: they are left to the collector.
		clear(next[maxNext:])
		next = next[:maxNext]
		res.Truncated = true
	}
	res.Frontier = &memSource{nodes: next}
	return res
}

// endSpooled ends a level spooled to segments: it publishes them, resolves
// the delayed duplicates and the budget cutoff on the level's admissions,
// and streams the survivors back in admission order.
func (s *spillStore) endSpooled(maxNext int) (LevelResult, error) {
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
	// The admissions revoked or cut, by entry; nil when there are none.
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
	return LevelResult{Frontier: src, Revoked: revoked, Truncated: truncated}, nil
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
// the delta table plus the Bloom prefilter. It runs at every barrier of a
// budgeted store and around every flush of a checkpoint seed.
func (s *spillStore) foldPeak() {
	resident := s.delta.bytes()
	if s.bloom != nil {
		resident += s.bloom.bytes()
	}
	s.stats.PeakResidentBytes = max(s.stats.PeakResidentBytes, resident)
}

// Stats reports cumulative store statistics. It samples the peak too:
// without a budget the visited table only grows and EndLevel leaves the
// peak alone, and async runs never reach EndLevel (Stats runs after the
// run ends, when no worker is live).
func (s *spillStore) Stats() StoreStats {
	s.foldPeak()
	return s.stats
}

// Close releases the store's files and directory. It is safe to call after
// an aborted level, and twice.
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
	// Once the run has stopped — after a read or decode failure the stream
	// positions are not trustworthy — hand out nothing more.
	for n == 0 && !s.store.ctx.stopped() {
		b := s.claim()
		if b == nil {
			break
		}
		for n < len(buf) && b.off < len(b.data) {
			node, err := s.decode(b)
			if err != nil {
				s.store.ctx.fail(err)
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
			s.store.ctx.fail(fmt.Errorf("spill store: segment read: %w", err))
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

// DumpVisited streams every visited entry to emit, for a checkpoint
// snapshot; it runs at a level barrier only. It emits the resident delta,
// in table order, and then every spilled run, so an entry spilled and
// re-admitted since comes twice. Table order costs no memory but is the
// one order that must never be inserted into a table that is still
// growing (fpSet.reserve says why), hence SeedVisited's shape.
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

// SeedVisited takes a snapshot whole, after its checksum has verified: fps
// (and, under exact keys, the parallel keys; nil otherwise) go into a
// delta table sized for what it will take before it takes it, so seeding
// is linear in the snapshot whatever order it arrives in. It runs once, on
// a fresh store, before the first level; repeats are harmless. Under a
// budget the delta takes entries up to the budget, is flushed to a sorted
// run like any over-budget delta, and starts over, so a resumed run holds
// no more of the visited set resident than the run that wrote the
// snapshot did.
func (s *spillStore) SeedVisited(fps []uint64, keys []string) error {
	// The budget, floored at a delta table's initial footprint (2,048
	// slots) so tiny budgets batch flushes instead of spilling every entry.
	budget := s.budget
	if budget > 0 {
		budget = max(budget, 16<<10)
	}
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
		if budget > 0 && (room == 0 || s.delta.bytes() > budget) && left > 1 {
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
