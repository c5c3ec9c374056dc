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
//   - Each partition keeps a resident *delta* table (a keyedSet) holding
//     the visited entries admitted since its last spill. Candidates are
//     checked against the delta only, so the per-candidate cost matches
//     the in-memory store.
//
//   - When the summed delta size exceeds the budget at a level barrier,
//     every partition's delta is flushed to a new *sorted run* file — an
//     entry stream (entry.go), the layout a checkpoint's visited snapshot
//     is written in — and the delta is cleared. A configuration visited
//     before the spill is no longer resident, so a later re-encounter is
//     admitted *tentatively*.
//
//   - EndLevel resolves the tentative admissions: each partition
//     stream-merges its sorted level admissions against its sorted runs
//     (the k-way merge of external-memory model checking) and revokes the
//     ones already on disk. The surviving set is exactly what the
//     in-memory store admits, so results are store-independent.
//
//   - A compact per-partition Bloom prefilter (bloom.go) fronts those
//     run-file probes: every spilled fingerprint is added to the filter,
//     so an admission the filter rejects provably appears in no run and
//     skips the barrier merge outright. Only bloom-positive admissions —
//     the probable duplicates, counted as prefilter_hits — pay for exact
//     run probes. In the common mostly-fresh BFS level this removes
//     nearly all merge traffic; a saturated filter only degrades back to
//     probing everything, never to a wrong answer.
//
//   - When a partition accumulates runFanout runs, they are k-way merged
//     into one (dropping duplicate entries), keeping per-level merge cost
//     proportional to the spilled volume, not the run count.
//
// Frontier queuing — spooled segments:
//
//   - Admitted nodes are immediately serialised as node records
//     (noderec.go, the record a distributed run puts on the wire) into a
//     per-partition segment file and their buffers recycled, so frontier
//     memory is O(batch), not O(level). A segment is a sequence of blocks,
//     uvarint length | records, each about artifactBlock bytes: the next
//     level's workers claim a block at a time under the source's lock and
//     decode it outside, skipping records revoked or truncated at the
//     barrier. Per-slot canonical Values/States cannot be rebuilt from
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
	seq     int // levels ended so far; names the level's segment files
	parts   []spillPart
	remat   rematerialiser
	source  *spillSource // last handed-out streaming source (for Close)

	// stats moves only at barriers and seeding; the partitions' prefilter
	// hits are summed into it when asked.
	stats StoreStats

	// err is the first I/O or decode failure, boxed like engineRun's.
	err atomic.Pointer[error]
}

// spillPart is one partition of the spill store.
type spillPart struct {
	id int

	// delta holds the entries admitted since the partition last spilled.
	delta keyedSet

	// bloom summarizes every fingerprint this partition has spilled
	// (created at the first spill); admissions it proves fresh skip the
	// barrier's run-file merge. prefilterHits counts the bloom-positive
	// admissions — the probable duplicates routed to exact probes.
	bloom         *bloomFilter
	prefilterHits int64

	// This level's tentative admissions, in arrival order; level[j]
	// corresponds to next[j] (retain mode) and to the j-th spooled record.
	level []spillEntry
	dead  []bool
	next  []*Node // retain mode only

	runs   []spillRun
	runSeq int
	spool  *blockWriter // this level's segment; nil until a node is spooled

	spans [][]byte // slot-span scratch (owner-goroutine exclusive)
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

// runFanout is the per-partition run-count threshold that triggers a
// compaction merge.
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
		parts: make([]spillPart, ctx.parts), stats: StoreStats{Kind: StoreSpill},
		remat: rematerialiser{ctx: ctx, exch: model.NewSlotExchange()}}
	for i := range s.parts {
		s.parts[i].id = i
		s.parts[i].delta = newKeyedSet(ctx.stringKeys)
	}
	return s, nil
}

func (s *spillStore) fail(err error) { s.err.CompareAndSwap(nil, &err) }

func (s *spillStore) takeErr() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *spillStore) Admit(part int, n *Node) (added, retained bool) {
	p := &s.parts[part]
	if !p.delta.add(n.fp, n.key) {
		return false, true
	}
	// Prefilter verdict: a fingerprint the bloom has never seen appears
	// in no spilled run (the filter has no false negatives; in exact-key
	// mode an absent fingerprint implies the (fp, key) pair is absent
	// too), so the admission is final and skips the barrier merge.
	fresh := p.bloom == nil || !p.bloom.has(n.fp)
	p.level = append(p.level, spillEntry{entry{n.fp, n.key}, fresh})
	if !fresh {
		p.prefilterHits++
	}
	if s.ctx.retain {
		p.next = append(p.next, n)
		return true, true
	}
	if err := s.spoolNode(p, n); err != nil {
		s.fail(err)
	}
	return true, false
}

func (s *spillStore) Has(part int, fp uint64, key string) bool {
	return s.parts[part].delta.has(fp, key)
}

// spoolNode appends n's record to the partition's segment, interning
// every slot encoding in the exchange so the node can be rematerialised.
func (s *spillStore) spoolNode(p *spillPart, n *Node) error {
	if p.spool == nil {
		w, err := newBlockWriter(filepath.Join(s.dir, fmt.Sprintf("seg-%d-p%d", s.seq, p.id)), artifactSegment, true)
		if err != nil {
			return fmt.Errorf("spill store: %w", err)
		}
		p.spool = w
	}
	var enc []byte
	p.spool.buf, enc = AppendNodeRecord(p.spool.buf, n)
	spans, err := model.SlotSpans(enc, s.ctx.nObj, s.ctx.nProc, p.spans)
	if err != nil {
		return fmt.Errorf("spill store: %w", err)
	}
	p.spans = spans
	s.remat.exch.Intern(n.Cfg, spans, s.ctx.nObj)
	if err := p.spool.flushFull(); err != nil {
		return fmt.Errorf("spill store: segment write: %w", err)
	}
	return nil
}

func (s *spillStore) EndLevel(maxNext int) (LevelResult, error) {
	if err := s.takeErr(); err != nil {
		return LevelResult{}, err
	}

	// Publish the level's segment files before anything can read them.
	segs := make([]string, len(s.parts))
	for i := range s.parts {
		p := &s.parts[i]
		if p.spool != nil {
			w := p.spool
			p.spool = nil
			written, err := w.finish()
			if err != nil {
				return LevelResult{}, fmt.Errorf("spill store: segment finish: %w", err)
			}
			s.stats.BytesSpilled += written
			segs[i] = w.path
		}
	}

	// Delayed duplicate detection: merge each partition's sorted level
	// admissions against its sorted runs and revoke the ones already
	// visited before the last spill.
	revoked, survivors := 0, 0
	for i := range s.parts {
		p := &s.parts[i]
		dead, err := s.markDead(p)
		if err != nil {
			return LevelResult{}, err
		}
		revoked += dead
		survivors += len(p.level) - dead
	}

	// Budget cutoff, by the engine's canonical (fingerprint, key) order.
	// Entries are globally unique (dedup guarantees it), so the cutoff
	// entry cleanly separates survivors from drops.
	truncated := survivors > maxNext
	var cutoff entry
	if truncated && maxNext > 0 {
		all := make([]entry, 0, survivors)
		for i := range s.parts {
			p := &s.parts[i]
			for j, e := range p.level {
				if !p.dead[j] {
					all = append(all, e.entry)
				}
			}
		}
		slices.SortFunc(all, entryCompare)
		cutoff = all[maxNext-1]
	}
	dropped := func(p *spillPart, j int) bool {
		if p.dead[j] {
			return true
		}
		return truncated && (maxNext == 0 || entryLess(cutoff, p.level[j].entry))
	}
	kept := survivors
	if truncated {
		kept = maxNext
	}

	res := LevelResult{Revoked: revoked, Truncated: truncated}
	if s.ctx.retain {
		next := make([]*Node, 0, kept)
		for i := range s.parts {
			p := &s.parts[i]
			for j, n := range p.next {
				if dropped(p, j) {
					// Revoked and truncated nodes are unreferenced even
					// in provenance runs (nothing expanded them, and
					// pending claims only ever mutated them), so their
					// buffers go straight back to the pool.
					s.ctx.recycle(n)
					continue
				}
				next = append(next, n)
			}
			p.next = nil
		}
		res.Frontier = &memSource{nodes: next}
	} else {
		src := &spillSource{store: s, size: kept, segs: segs,
			readers: make([]*artifactScanner, len(s.parts)),
			drop:    make([]*keyedSet, len(s.parts)),
		}
		s.source = src
		for i := range s.parts {
			p := &s.parts[i]
			for j := range p.level {
				if !dropped(p, j) {
					continue
				}
				if src.drop[i] == nil {
					d := newKeyedSet(s.ctx.stringKeys)
					src.drop[i] = &d
				}
				src.drop[i].add(p.level[j].fp, p.level[j].key)
			}
			if segs[i] != "" {
				r, err := scanArtifact(segs[i], artifactSegment)
				if err != nil {
					return LevelResult{}, fmt.Errorf("spill store: %w", err)
				}
				// Unlink immediately: the open descriptor keeps the data
				// readable and the file is reclaimed even if the source
				// is abandoned mid-level.
				os.Remove(segs[i])
				src.readers[i] = r
			}
		}
		res.Frontier = src
	}

	// Reset per-level state and apply the byte budget: when the resident
	// delta exceeds it, flush every partition's delta to a fresh sorted
	// run and compact partitions that accumulated runFanout runs. The
	// Bloom prefilters count toward the reported peak (they are resident
	// memory) but not toward the spill trigger: spilling cannot shrink a
	// filter, so triggering on its constant footprint would only force a
	// futile delta flush at every subsequent barrier.
	var deltas int64
	for i := range s.parts {
		p := &s.parts[i]
		p.level = p.level[:0]
		p.dead = p.dead[:0]
		deltas += p.delta.bytes()
	}
	s.foldPeak()
	if deltas > s.budget {
		for i := range s.parts {
			if err := s.spillDelta(&s.parts[i]); err != nil {
				return LevelResult{}, err
			}
		}
	}

	s.seq++
	return res, nil
}

// markDead stream-merges the partition's sorted level admissions against
// each sorted run, marking entries already present on disk. Admissions
// the Bloom prefilter proved fresh are excluded up front — they cannot
// appear in any run — so the merge (and the run I/O it drives) costs
// only the bloom-positive suspects. It reads runs sequentially and stops
// each as soon as the suspect list is exhausted.
func (s *spillStore) markDead(p *spillPart) (int, error) {
	for len(p.dead) < len(p.level) {
		p.dead = append(p.dead, false)
	}
	if len(p.level) == 0 || len(p.runs) == 0 {
		return 0, nil
	}
	order := make([]int, 0, len(p.level))
	for i, e := range p.level {
		if !e.fresh {
			order = append(order, i)
		}
	}
	if len(order) == 0 {
		return 0, nil
	}
	slices.SortFunc(order, func(i, j int) int { return entryCompare(p.level[i].entry, p.level[j].entry) })

	for i := range p.runs {
		if err := s.mergeMark(p, &p.runs[i], order); err != nil {
			return 0, err
		}
	}
	dead := 0
	for _, d := range p.dead {
		if d {
			dead++
		}
	}
	return dead, nil
}

func (s *spillStore) mergeMark(p *spillPart, run *spillRun, order []int) error {
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
		for idx < len(order) && entryLess(p.level[order[idx]].entry, e) {
			idx++
		}
		if idx < len(order) && p.level[order[idx]].entry == e {
			p.dead[order[idx]] = true
			idx++
		}
	}
	return nil // admissions exhausted; rest of the run is irrelevant
}

// newRun opens the partition's next sorted-run file for writing.
func (s *spillStore) newRun(p *spillPart) (*blockWriter, error) {
	w, err := newBlockWriter(filepath.Join(s.dir, fmt.Sprintf("run-p%d-%d", p.id, p.runSeq)), artifactRun, false)
	if err != nil {
		return nil, fmt.Errorf("spill store: %w", err)
	}
	p.runSeq++
	return w, nil
}

// publishRun seals a fully written run; it replaces the partition's
// runs when replaces is set (a compaction) and joins them otherwise.
func (s *spillStore) publishRun(p *spillPart, w *blockWriter, replaces bool) error {
	written, err := w.finish()
	if err != nil {
		return fmt.Errorf("spill store: run finish: %w", err)
	}
	if replaces {
		for i := range p.runs {
			os.Remove(p.runs[i].path)
		}
		s.stats.RunsMerged += len(p.runs)
		p.runs = p.runs[:0]
	}
	s.stats.BytesSpilled += written
	s.stats.RunsWritten++
	p.runs = append(p.runs, spillRun{path: w.path})
	return nil
}

// spillDelta flushes the partition's resident delta to a new sorted run
// and clears it, then compacts when the partition holds runFanout runs.
func (s *spillStore) spillDelta(p *spillPart) error {
	entries := p.delta.drain()
	if len(entries) == 0 {
		return nil
	}
	// Summarize the flushed fingerprints in the prefilter before they
	// leave RAM. The filter is sized once from the byte budget (~1/4 of
	// it, ~1% false positives for the first few flushes); overfilling it
	// only raises the false-positive rate — more barrier merge work,
	// never a wrong verdict — so it is never rebuilt.
	if p.bloom == nil {
		p.bloom = newBloomFilter(s.budget / 5 / int64(len(s.parts)))
	}
	for _, e := range entries {
		p.bloom.add(e.fp)
	}
	slices.SortFunc(entries, entryCompare)

	w, err := s.newRun(p)
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
	if err := s.publishRun(p, w, false); err != nil {
		return err
	}
	if len(p.runs) >= runFanout {
		return s.compact(p)
	}
	return nil
}

// compact k-way merges all of the partition's runs into one, dropping
// duplicate entries (a fingerprint re-admitted after a spill appears in
// two runs until compaction unifies them).
func (s *spillStore) compact(p *spillPart) error {
	readers := make([]*entryReader, len(p.runs))
	heads := make([]entry, len(p.runs))
	live := make([]bool, len(p.runs))
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.close()
			}
		}
	}()
	for i, run := range p.runs {
		r, err := openEntries(run.path, artifactRun)
		if err != nil {
			return fmt.Errorf("spill store: %w", err)
		}
		readers[i] = r
		if heads[i], live[i], err = r.next(); err != nil {
			return err
		}
	}

	w, err := s.newRun(p)
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
	return s.publishRun(p, w, true)
}

// foldPeak raises the resident high-water mark to the current footprint:
// every partition's delta table plus its Bloom prefilter. It runs at
// every barrier and around every flush of a checkpoint seed.
func (s *spillStore) foldPeak() {
	var resident int64
	for i := range s.parts {
		p := &s.parts[i]
		resident += p.delta.bytes()
		if p.bloom != nil {
			resident += p.bloom.bytes()
		}
	}
	s.stats.PeakResidentBytes = max(s.stats.PeakResidentBytes, resident)
}

func (s *spillStore) Stats() StoreStats {
	out := s.stats
	for i := range s.parts {
		out.PrefilterHits += s.parts[i].prefilterHits
	}
	return out
}

func (s *spillStore) Close() error {
	for i := range s.parts {
		if w := s.parts[i].spool; w != nil {
			w.abort()
			s.parts[i].spool = nil
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
		for i := range s.parts {
			for _, run := range s.parts[i].runs {
				os.Remove(run.path)
			}
			s.parts[i].runs = nil
		}
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
	segs  []string // the partitions' segment paths, for error reports
	// drop holds, per partition, the admissions revoked or truncated at
	// the barrier (nil: none); read-only once the source is handed out.
	drop []*keyedSet

	mu      sync.Mutex
	cur     int
	readers []*artifactScanner
	partial []*segBlock // claimed blocks handed back with records left

	pool sync.Pool
}

// segBlock is one claimed block of partition part's segment, decoded as
// far as off.
type segBlock struct {
	part  int
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
			b.part, b.off = s.cur, 0
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
	rec, err := b.next(s.segs[b.part])
	if err != nil {
		return nil, err
	}
	key := ""
	if s.store.ctx.stringKeys {
		key = string(rec.Enc)
	}
	if d := s.drop[b.part]; d != nil && d.has(rec.FP, key) {
		return nil, nil
	}
	n, spans, err := s.store.remat.node(rec, b.spans)
	b.spans = spans
	if err != nil {
		return nil, &CorruptArtifactError{Path: s.segs[b.part], Reason: err.Error()}
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

// DumpVisited emits the resident deltas and then every spilled run; an
// entry spilled and re-admitted since comes twice.
func (s *spillStore) DumpVisited(emit func(fp uint64, key string) error) error {
	for i := range s.parts {
		p := &s.parts[i]
		if err := p.delta.forEach(emit); err != nil {
			return err
		}
		for j := range p.runs {
			r, err := openEntries(p.runs[j].path, artifactRun)
			if err != nil {
				return err
			}
			err = r.each(emit)
			r.close()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// SeedVisited loads the snapshot under the byte budget: a partition's
// delta takes entries up to its share of the budget, is flushed to a
// sorted run like any over-budget delta, and starts over, so a resumed run
// holds no more of the visited set resident than the run that wrote the
// snapshot did. Every fresh delta table is sized for what it will take
// before it takes it (a mem-store snapshot arrives in table order).
func (s *spillStore) SeedVisited(fps []uint64, keys []string) error {
	// A partition's share of the budget, floored at a delta table's
	// initial footprint so tiny budgets batch flushes instead of spilling
	// every entry.
	partBudget := max(s.budget/int64(len(s.parts)), 8<<10)
	left := partCounts(fps, len(s.parts)) // entries still to come, per partition
	room := make([]int, len(s.parts))     // entries the current delta table still takes
	mask := uint64(len(s.parts) - 1)
	for i, fp := range fps {
		part := fp & mask
		p := &s.parts[part]
		if room[part] == 0 {
			room[part] = p.delta.reserve(left[part], partBudget)
		}
		key := ""
		if keys != nil {
			key = keys[i]
		}
		p.delta.add(fp, key)
		room[part]--
		left[part]--
		// The delta has reached its share of the budget.
		if (room[part] == 0 || p.delta.bytes() > partBudget) && left[part] > 0 {
			s.foldPeak()
			if err := s.spillDelta(p); err != nil {
				return err
			}
			room[part] = 0
		}
	}
	s.foldPeak()
	return nil
}
