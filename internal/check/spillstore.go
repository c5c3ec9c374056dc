package check

import (
	"bufio"
	"encoding/binary"
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
//   - Each partition keeps a resident *delta* table (fpSet, or an exact
//     key map) holding the visited entries admitted since its last spill.
//     Candidates are checked against the delta only, so the per-candidate
//     cost matches the in-memory store.
//
//   - When the summed delta size exceeds the budget at a level barrier,
//     every partition's delta is flushed to a new *sorted run* file of
//     (fingerprint[, key]) entries and the delta is cleared. A
//     configuration visited before the spill is no longer resident, so a
//     later re-encounter is admitted *tentatively*.
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
//   - Admitted nodes are immediately encoded (the compact Config binary
//     encoding) into a per-partition segment file and their buffers
//     recycled, so frontier memory is O(batch), not O(level). The next
//     level streams nodes back, skipping entries revoked or truncated at
//     the barrier. Per-slot canonical Values/States cannot be rebuilt
//     from bytes alone (states are protocol-defined and opaque), so the
//     store interns every slot encoding it spools in an exchange table —
//     resident memory that grows with *distinct slot encodings*, the same
//     asymptotics as the steppers' arenas, typically far below the
//     configuration count.
//
//   - Runs that must retain nodes in RAM (EngineOptions.Provenance: parent
//     chains stay live for witness replay) keep the frontier resident and
//     spill only the dedup state.
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
	exch    *model.SlotExchange
	source  *spillSource // last handed-out streaming source (for Close)

	// bytesSpilled is atomic: the partition owners spool frontier nodes
	// concurrently. The run counters move only at barriers and seeding.
	bytesSpilled atomic.Int64
	runsWritten  int
	runsMerged   int
	peak         int64

	errMu sync.Mutex
	err   error
}

// spillPart is one partition of the spill store.
type spillPart struct {
	id int

	// Resident delta: entries admitted since the partition last spilled.
	// Exactly one of deltaFP / deltaKeys is used, per the keying mode;
	// deltaKeys maps key -> fingerprint because run entries and the
	// truncation order need both.
	deltaFP       *fpSet
	deltaKeys     map[string]uint64
	deltaKeyBytes int64

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
	spool  *spoolWriter

	enc   []byte   // encode scratch (owner-goroutine exclusive)
	spans [][]byte // slot-span scratch
}

// spillEntry is one dedup entry: the fingerprint plus, in exact-key mode,
// the full encoding key. fresh marks entries the Bloom prefilter proved
// absent from every spilled run at admission time — they skip the
// barrier merge (they cannot be delayed duplicates).
type spillEntry struct {
	fp    uint64
	key   string
	fresh bool
}

// entryCompare is compareKeyed on two dedup entries.
func entryCompare(a, b spillEntry) int { return compareKeyed(a.fp, a.key, b.fp, b.key) }

func entryLess(a, b spillEntry) bool { return entryCompare(a, b) < 0 }

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
		parts: make([]spillPart, ctx.parts)}
	s.exch = model.NewSlotExchange()
	for i := range s.parts {
		p := &s.parts[i]
		p.id = i
		if ctx.stringKeys {
			p.deltaKeys = map[string]uint64{}
		} else {
			p.deltaFP = newFpSet(1024)
		}
	}
	return s, nil
}

func (s *spillStore) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

func (s *spillStore) takeErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *spillStore) Admit(part int, n *Node) (added, retained bool) {
	p := &s.parts[part]
	// Prefilter verdict: a fingerprint the bloom has never seen appears
	// in no spilled run (the filter has no false negatives; in exact-key
	// mode an absent fingerprint implies the (fp, key) pair is absent
	// too), so the admission is final and skips the barrier merge.
	fresh := p.bloom == nil || !p.bloom.has(n.fp)
	if s.ctx.stringKeys {
		if _, dup := p.deltaKeys[n.key]; dup {
			return false, true
		}
		p.deltaKeys[n.key] = n.fp
		p.deltaKeyBytes += int64(len(n.key)) + mapEntryOverhead
		p.level = append(p.level, spillEntry{fp: n.fp, key: n.key, fresh: fresh})
	} else {
		if !p.deltaFP.Add(n.fp) {
			return false, true
		}
		p.level = append(p.level, spillEntry{fp: n.fp, fresh: fresh})
	}
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
	p := &s.parts[part]
	if s.ctx.stringKeys {
		_, ok := p.deltaKeys[key]
		return ok
	}
	return p.deltaFP.Has(fp)
}

// spoolNode appends n's record to the partition's segment file, interning
// every slot encoding in the exchange so the node can be rematerialized.
func (s *spillStore) spoolNode(p *spillPart, n *Node) error {
	if p.spool == nil {
		w, err := newSpoolWriter(filepath.Join(s.dir, fmt.Sprintf("seg-%d-p%d", s.seq, p.id)), n.Depth)
		if err != nil {
			return err
		}
		p.spool = w
	}
	p.enc = n.Cfg.AppendEncoding(p.enc[:0])
	spans, err := model.SlotSpans(p.enc, s.ctx.nObj, s.ctx.nProc, p.spans)
	if err != nil {
		return fmt.Errorf("spill store: %w", err)
	}
	p.spans = spans
	s.exch.Intern(n.Cfg, spans, s.ctx.nObj)
	var pth []byte
	if s.ctx.paths {
		pth = n.path
	}
	written, err := p.spool.write(n.Pid, n.fp, n.slotFP, p.enc, pth)
	if err != nil {
		return err
	}
	s.bytesSpilled.Add(written)
	return nil
}

func (s *spillStore) EndLevel(maxNext int) (LevelResult, error) {
	if err := s.takeErr(); err != nil {
		return LevelResult{}, err
	}

	// Flush the level's segment files before anything can read them.
	segs := make([]*spoolWriter, len(s.parts))
	for i := range s.parts {
		p := &s.parts[i]
		if p.spool != nil {
			if err := p.spool.finish(); err != nil {
				return LevelResult{}, err
			}
			segs[i], p.spool = p.spool, nil
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
	var cutoff spillEntry
	if truncated && maxNext > 0 {
		all := make([]spillEntry, 0, survivors)
		for i := range s.parts {
			p := &s.parts[i]
			for j, e := range p.level {
				if !p.dead[j] {
					all = append(all, e)
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
		return truncated && (maxNext == 0 || entryLess(cutoff, p.level[j]))
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
		src := &spillSource{store: s, size: kept,
			readers: make([]*spoolReader, len(s.parts)),
			dropFP:  make([]map[uint64]struct{}, len(s.parts)),
			dropKey: make([]map[string]struct{}, len(s.parts)),
		}
		for i := range s.parts {
			p := &s.parts[i]
			for j := range p.level {
				if !dropped(p, j) {
					continue
				}
				if s.ctx.stringKeys {
					if src.dropKey[i] == nil {
						src.dropKey[i] = map[string]struct{}{}
					}
					src.dropKey[i][p.level[j].key] = struct{}{}
				} else {
					if src.dropFP[i] == nil {
						src.dropFP[i] = map[uint64]struct{}{}
					}
					src.dropFP[i][p.level[j].fp] = struct{}{}
				}
			}
			if segs[i] != nil {
				r, err := newSpoolReader(segs[i].path)
				if err != nil {
					return LevelResult{}, err
				}
				// Unlink immediately: the open descriptor keeps the data
				// readable and the file is reclaimed even if the source
				// is abandoned mid-level.
				os.Remove(segs[i].path)
				src.readers[i] = r
				src.depth = segs[i].depth
			}
		}
		s.source = src
		res.Frontier = src
	}

	// Reset per-level state and apply the byte budget: when the resident
	// delta exceeds it, flush every partition's delta to a fresh sorted
	// run and compact partitions that accumulated runFanout runs. The
	// Bloom prefilters count toward the reported peak (they are resident
	// memory) but not toward the spill trigger: spilling cannot shrink a
	// filter, so triggering on its constant footprint would only force a
	// futile delta flush at every subsequent barrier.
	var resident, bloomBytes int64
	for i := range s.parts {
		p := &s.parts[i]
		p.level = p.level[:0]
		p.dead = p.dead[:0]
		if s.ctx.stringKeys {
			resident += p.deltaKeyBytes
		} else {
			resident += int64(len(p.deltaFP.slots)) * 8
		}
		if p.bloom != nil {
			bloomBytes += p.bloom.bytes()
		}
	}
	if resident+bloomBytes > s.peak {
		s.peak = resident + bloomBytes
	}
	if resident > s.budget {
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
	slices.SortFunc(order, func(i, j int) int { return entryCompare(p.level[i], p.level[j]) })

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
	r, err := newRunReader(run.path, s.ctx.stringKeys)
	if err != nil {
		return err
	}
	defer r.close()
	idx := 0
	for {
		e, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for idx < len(order) && entryLess(p.level[order[idx]], e) {
			idx++
		}
		if idx >= len(order) {
			return nil // admissions exhausted; rest of the run is irrelevant
		}
		if cur := p.level[order[idx]]; cur.fp == e.fp && cur.key == e.key {
			p.dead[order[idx]] = true
			idx++
		}
	}
}

// spillDelta flushes the partition's resident delta to a new sorted run
// and clears it, then compacts when the partition holds runFanout runs.
func (s *spillStore) spillDelta(p *spillPart) error {
	var entries []spillEntry
	if s.ctx.stringKeys {
		entries = make([]spillEntry, 0, len(p.deltaKeys))
		for k, fp := range p.deltaKeys {
			entries = append(entries, spillEntry{fp: fp, key: k})
		}
		p.deltaKeys = map[string]uint64{}
		p.deltaKeyBytes = 0
	} else {
		fps := p.deltaFP.appendAll(nil)
		entries = make([]spillEntry, len(fps))
		for i, fp := range fps {
			entries[i].fp = fp
		}
		p.deltaFP = newFpSet(1024)
	}
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

	path := filepath.Join(s.dir, fmt.Sprintf("run-p%d-%d", p.id, p.runSeq))
	p.runSeq++
	written, err := writeRun(path, entries, s.ctx.stringKeys)
	if err != nil {
		return err
	}
	s.bytesSpilled.Add(written)
	s.runsWritten++
	p.runs = append(p.runs, spillRun{path: path})

	if len(p.runs) >= runFanout {
		return s.compact(p)
	}
	return nil
}

// compact k-way merges all of the partition's runs into one, dropping
// duplicate entries (a fingerprint re-admitted after a spill appears in
// two runs until compaction unifies them).
func (s *spillStore) compact(p *spillPart) error {
	readers := make([]*runReader, len(p.runs))
	heads := make([]spillEntry, len(p.runs))
	live := make([]bool, len(p.runs))
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.close()
			}
		}
	}()
	for i, run := range p.runs {
		r, err := newRunReader(run.path, s.ctx.stringKeys)
		if err != nil {
			return err
		}
		readers[i] = r
		if heads[i], live[i], err = r.next(); err != nil {
			return err
		}
	}

	path := filepath.Join(s.dir, fmt.Sprintf("run-p%d-%d", p.id, p.runSeq))
	p.runSeq++
	w, err := newRunWriter(path, s.ctx.stringKeys)
	if err != nil {
		return err
	}
	haveLast := false
	var last spillEntry
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
		if haveLast && last.fp == e.fp && last.key == e.key {
			continue
		}
		if err := w.write(e); err != nil {
			w.abort()
			return err
		}
		last, haveLast = e, true
	}
	// Crash point: the merged run is complete but unpublished and the
	// input runs are still in place.
	fault.Crash(fault.CrashSpillRunMerge)
	written, err := w.finish()
	if err != nil {
		return err
	}
	for i, r := range readers {
		r.close()
		readers[i] = nil
	}
	for i := range p.runs {
		os.Remove(p.runs[i].path)
	}
	s.bytesSpilled.Add(written)
	s.runsMerged += len(p.runs)
	s.runsWritten++
	p.runs = []spillRun{{path: path}}
	return nil
}

// residentBytes is the store's current resident footprint: every
// partition's delta table plus its Bloom prefilter.
func (s *spillStore) residentBytes() int64 {
	var resident int64
	for i := range s.parts {
		p := &s.parts[i]
		if s.ctx.stringKeys {
			resident += p.deltaKeyBytes
		} else {
			resident += int64(len(p.deltaFP.slots)) * 8
		}
		if p.bloom != nil {
			resident += p.bloom.bytes()
		}
	}
	return resident
}

// foldPeak raises the resident high-water mark to the current footprint.
// It runs where no barrier samples for it: around every flush of a
// checkpoint seed.
func (s *spillStore) foldPeak() {
	if resident := s.residentBytes(); resident > s.peak {
		s.peak = resident
	}
}

func (s *spillStore) Stats() StoreStats {
	var hits int64
	for i := range s.parts {
		hits += s.parts[i].prefilterHits
	}
	return StoreStats{
		Kind:              StoreSpill,
		BytesSpilled:      s.bytesSpilled.Load(),
		RunsWritten:       s.runsWritten,
		RunsMerged:        s.runsMerged,
		PeakResidentBytes: s.peak,
		PrefilterHits:     hits,
	}
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

// The slot-encoding exchange the store interns into lives in
// internal/model (model.SlotExchange) so the distributed-frontier peers
// can reuse the same rematerialization path for wire records.

// ---- segment (frontier spool) I/O ----

// spoolWriter appends frontier records to one partition's segment file
// (an artifactSegment: checksummed, published by rename in finish).
// Record: uvarint(pid+1) | fp (8B LE) | slotFP (8B LE) | uvarint len |
// encoding bytes | uvarint plen | path bytes (plen is 0 unless the
// engine is checkpointing, in which case the node's root-to-here pid
// path rides along so a resumed run can rebuild the node).
type spoolWriter struct {
	path string
	// depth is the BFS depth of the level spooled here (records do not
	// carry it: a level's nodes share one). It is the nodes' own, not a
	// count of this store's levels, which starts over on a resumed run.
	depth int
	aw    *artifactWriter
	hdr   []byte
}

func newSpoolWriter(path string, depth int) (*spoolWriter, error) {
	aw, err := newArtifactWriter(path, artifactSegment)
	if err != nil {
		return nil, fmt.Errorf("spill store: %w", err)
	}
	return &spoolWriter{path: path, depth: depth, aw: aw}, nil
}

func (w *spoolWriter) write(pid int, fp, slotFP uint64, enc, path []byte) (int64, error) {
	h := binary.AppendUvarint(w.hdr[:0], uint64(pid+1))
	h = binary.LittleEndian.AppendUint64(h, fp)
	h = binary.LittleEndian.AppendUint64(h, slotFP)
	h = binary.AppendUvarint(h, uint64(len(enc)))
	w.hdr = h
	if _, err := w.aw.Write(h); err != nil {
		return 0, fmt.Errorf("spill store: segment write: %w", err)
	}
	if _, err := w.aw.Write(enc); err != nil {
		return 0, fmt.Errorf("spill store: segment write: %w", err)
	}
	t := binary.AppendUvarint(w.hdr[len(w.hdr):], uint64(len(path)))
	if _, err := w.aw.Write(t); err != nil {
		return 0, fmt.Errorf("spill store: segment write: %w", err)
	}
	if len(path) > 0 {
		if _, err := w.aw.Write(path); err != nil {
			return 0, fmt.Errorf("spill store: segment write: %w", err)
		}
	}
	return int64(len(h) + len(enc) + len(t) + len(path)), nil
}

func (w *spoolWriter) finish() error {
	if _, err := w.aw.finish(); err != nil {
		return fmt.Errorf("spill store: segment finish: %w", err)
	}
	return nil
}

func (w *spoolWriter) abort() {
	w.aw.abort()
}

// spoolReader streams one segment file back, verifying the payload
// checksum as a side effect of reaching EOF.
type spoolReader struct {
	ar *artifactReader
	br *bufio.Reader
}

func newSpoolReader(path string) (*spoolReader, error) {
	ar, _, err := openArtifact(path, artifactSegment)
	if err != nil {
		return nil, fmt.Errorf("spill store: %w", err)
	}
	return &spoolReader{ar: ar, br: bufio.NewReaderSize(ar, 1<<18)}, nil
}

// rawRec is one un-decoded segment record; its encoding lives in the
// batch buffer at [off:end] and its pid path (checkpoint runs only) at
// [pathOff:pathEnd].
type rawRec struct {
	pid              int
	fp               uint64
	slotFP           uint64
	off, end         int
	pathOff, pathEnd int
}

// read appends the next record's encoding (and path) to *data and
// returns the record, or ok == false at EOF.
func (r *spoolReader) read(data *[]byte) (rec rawRec, ok bool, err error) {
	pid1, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return rawRec{}, false, nil
	}
	if err != nil {
		return rawRec{}, false, fmt.Errorf("spill store: segment read: %w", err)
	}
	var fixed [16]byte
	if _, err := io.ReadFull(r.br, fixed[:]); err != nil {
		return rawRec{}, false, fmt.Errorf("spill store: segment read: %w", err)
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return rawRec{}, false, fmt.Errorf("spill store: segment read: %w", err)
	}
	off := len(*data)
	if err := appendRead(r.br, data, int(n)); err != nil {
		return rawRec{}, false, fmt.Errorf("spill store: segment read: %w", err)
	}
	end := len(*data)
	pn, err := binary.ReadUvarint(r.br)
	if err != nil {
		return rawRec{}, false, fmt.Errorf("spill store: segment read: %w", err)
	}
	if err := appendRead(r.br, data, int(pn)); err != nil {
		return rawRec{}, false, fmt.Errorf("spill store: segment read: %w", err)
	}
	return rawRec{
		pid:    int(pid1) - 1,
		fp:     binary.LittleEndian.Uint64(fixed[0:8]),
		slotFP: binary.LittleEndian.Uint64(fixed[8:16]),
		off:    off, end: end,
		pathOff: end, pathEnd: len(*data),
	}, true, nil
}

// appendRead grows *data by n bytes read from br.
func appendRead(br *bufio.Reader, data *[]byte, n int) error {
	off := len(*data)
	need := off + n
	if cap(*data) < need {
		grown := make([]byte, need, 2*need+4096)
		copy(grown, *data)
		*data = grown
	} else {
		*data = (*data)[:need]
	}
	_, err := io.ReadFull(br, (*data)[off:])
	return err
}

func (r *spoolReader) close() { r.ar.close() }

// ---- sorted-run I/O ----

// runWriter writes sorted dedup entries (an artifactRun: checksummed,
// published by rename): fp (8B LE) plus, in exact-key mode, uvarint
// len | key bytes.
type runWriter struct {
	path       string
	aw         *artifactWriter
	stringKeys bool
	hdr        []byte
	bytes      int64
}

func newRunWriter(path string, stringKeys bool) (*runWriter, error) {
	aw, err := newArtifactWriter(path, artifactRun)
	if err != nil {
		return nil, fmt.Errorf("spill store: %w", err)
	}
	return &runWriter{path: path, aw: aw, stringKeys: stringKeys}, nil
}

func (w *runWriter) write(e spillEntry) error {
	h := binary.LittleEndian.AppendUint64(w.hdr[:0], e.fp)
	if w.stringKeys {
		h = binary.AppendUvarint(h, uint64(len(e.key)))
	}
	w.hdr = h
	if _, err := w.aw.Write(h); err != nil {
		return fmt.Errorf("spill store: run write: %w", err)
	}
	w.bytes += int64(len(h))
	if w.stringKeys {
		if _, err := io.WriteString(w.aw, e.key); err != nil {
			return fmt.Errorf("spill store: run write: %w", err)
		}
		w.bytes += int64(len(e.key))
	}
	return nil
}

func (w *runWriter) finish() (int64, error) {
	if _, err := w.aw.finish(); err != nil {
		return 0, fmt.Errorf("spill store: run finish: %w", err)
	}
	return w.bytes, nil
}

func (w *runWriter) abort() {
	w.aw.abort()
}

func writeRun(path string, entries []spillEntry, stringKeys bool) (int64, error) {
	w, err := newRunWriter(path, stringKeys)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if err := w.write(e); err != nil {
			w.abort()
			return 0, err
		}
	}
	// Crash point: the sorted run is fully written but not yet renamed
	// into place — the delta it snapshots dies with the process.
	fault.Crash(fault.CrashSpillRunWrite)
	return w.finish()
}

// runReader streams a sorted run back; reaching EOF verifies the
// payload checksum.
type runReader struct {
	ar         *artifactReader
	br         *bufio.Reader
	stringKeys bool
	keyBuf     []byte
}

func newRunReader(path string, stringKeys bool) (*runReader, error) {
	ar, _, err := openArtifact(path, artifactRun)
	if err != nil {
		return nil, fmt.Errorf("spill store: %w", err)
	}
	return &runReader{ar: ar, br: bufio.NewReaderSize(ar, 1<<18), stringKeys: stringKeys}, nil
}

func (r *runReader) next() (spillEntry, bool, error) {
	var fixed [8]byte
	if _, err := io.ReadFull(r.br, fixed[:]); err != nil {
		if err == io.EOF {
			return spillEntry{}, false, nil
		}
		return spillEntry{}, false, fmt.Errorf("spill store: run read: %w", err)
	}
	e := spillEntry{fp: binary.LittleEndian.Uint64(fixed[:])}
	if r.stringKeys {
		n, err := binary.ReadUvarint(r.br)
		if err != nil {
			return spillEntry{}, false, fmt.Errorf("spill store: run read: %w", err)
		}
		if uint64(cap(r.keyBuf)) < n {
			r.keyBuf = make([]byte, n)
		}
		r.keyBuf = r.keyBuf[:n]
		if _, err := io.ReadFull(r.br, r.keyBuf); err != nil {
			return spillEntry{}, false, fmt.Errorf("spill store: run read: %w", err)
		}
		e.key = string(r.keyBuf)
	}
	return e, true, nil
}

func (r *runReader) close() { r.ar.close() }

// ---- streaming frontier source ----

// spillSource streams a level's spooled frontier back to the engine
// workers: raw records are claimed under a short lock, decoding (exchange
// lookups, slot-hash recomputation) happens outside it.
type spillSource struct {
	store *spillStore
	size  int
	depth int

	mu      sync.Mutex
	cur     int
	readers []*spoolReader
	dropFP  []map[uint64]struct{}
	dropKey []map[string]struct{}

	rawPool sync.Pool
}

type rawBatch struct {
	data []byte
	recs []rawRec
}

func (s *spillSource) Size() int { return s.size }

func (s *spillSource) Next(buf []*Node) int {
	// After any read or decode failure the stream positions are not
	// trustworthy; hand out nothing more and let the latched error
	// surface at the next barrier (or at Close).
	if s.store.takeErr() != nil {
		return 0
	}
	rb, _ := s.rawPool.Get().(*rawBatch)
	if rb == nil {
		rb = &rawBatch{}
	}
	rb.data, rb.recs = rb.data[:0], rb.recs[:0]

	s.mu.Lock()
	for len(rb.recs) < len(buf) && s.cur < len(s.readers) {
		r := s.readers[s.cur]
		if r == nil {
			s.cur++
			continue
		}
		rec, ok, err := r.read(&rb.data)
		if err != nil {
			// Retire the reader: its stream position is misaligned, so
			// another read could hand back garbage records.
			s.store.fail(err)
			r.close()
			s.readers[s.cur] = nil
			s.cur++
			break
		}
		if !ok {
			r.close()
			s.readers[s.cur] = nil
			s.cur++
			continue
		}
		if s.droppedLocked(rec, rb.data) {
			rb.data = rb.data[:rec.off]
			continue
		}
		rb.recs = append(rb.recs, rec)
	}
	s.mu.Unlock()

	n := 0
	var spans [][]byte
	for _, rec := range rb.recs {
		node, sp, err := s.store.decode(rec, rb.data, s.depth, spans)
		spans = sp
		if err != nil {
			s.store.fail(err)
			break
		}
		buf[n] = node
		n++
	}
	s.rawPool.Put(rb)
	return n
}

// droppedLocked reports whether the record was revoked or truncated at
// the barrier. Entries are unique per level, so the fingerprint (or, in
// exact-key mode, the encoding) identifies the record.
func (s *spillSource) droppedLocked(rec rawRec, data []byte) bool {
	if s.store.ctx.stringKeys {
		m := s.dropKey[s.cur]
		if m == nil {
			return false
		}
		_, ok := m[string(data[rec.off:rec.end])]
		return ok
	}
	m := s.dropFP[s.cur]
	if m == nil {
		return false
	}
	_, ok := m[rec.fp]
	return ok
}

func (s *spillSource) closeAll() {
	s.mu.Lock()
	for i, r := range s.readers {
		if r != nil {
			r.close()
			s.readers[i] = nil
		}
	}
	s.cur = len(s.readers)
	s.mu.Unlock()
}

// decode rematerializes one spooled node: canonical slots from the
// exchange, slot hashes recomputed from the encoding spans. Every span a
// spooled node carries was interned when it was spooled, so a miss is
// corruption.
func (s *spillStore) decode(rec rawRec, data []byte, depth int, spans [][]byte) (*Node, [][]byte, error) {
	enc := data[rec.off:rec.end]
	n := s.ctx.newNode()
	spans, miss, err := fillFromExchange(n, s.exch, enc, s.ctx.nObj, s.ctx.nProc, spans)
	if err == nil && miss >= 0 {
		err = fmt.Errorf("slot %d encoding not interned", miss)
	}
	if err != nil {
		s.ctx.recycle(n)
		return nil, spans, fmt.Errorf("spill store: %w", err)
	}
	n.Depth = depth
	n.Pid = rec.pid
	n.parent = nil
	n.fp, n.slotFP = rec.fp, rec.slotFP
	n.path = append(n.path[:0], data[rec.pathOff:rec.pathEnd]...)
	if s.ctx.stringKeys {
		n.key = string(enc)
	} else {
		n.key = ""
	}
	return n, spans, nil
}

// ---- checkpoint support ----

// DumpVisited streams every visited entry (resident deltas plus all
// spilled runs) to emit, for checkpoint snapshots. Runs at a level
// barrier only. Entries may repeat across delta and runs; seeding is
// idempotent so duplicates are harmless.
func (s *spillStore) DumpVisited(emit func(fp uint64, key string) error) error {
	for i := range s.parts {
		p := &s.parts[i]
		if s.ctx.stringKeys {
			for k, fp := range p.deltaKeys {
				if err := emit(fp, k); err != nil {
					return err
				}
			}
		} else if err := p.deltaFP.forEach(func(fp uint64) error { return emit(fp, "") }); err != nil {
			return err
		}
		for j := range p.runs {
			r, err := newRunReader(p.runs[j].path, s.ctx.stringKeys)
			if err != nil {
				return err
			}
			for {
				e, ok, err := r.next()
				if err != nil {
					r.close()
					return err
				}
				if !ok {
					break
				}
				if err := emit(e.fp, e.key); err != nil {
					r.close()
					return err
				}
			}
			r.close()
		}
	}
	return nil
}

// SeedVisited loads a checkpoint's visited snapshot under the byte budget
// (checkpoint resume): a partition's delta takes entries up to its share
// of the budget, is flushed to a sorted run like any over-budget delta,
// and starts over, so a resumed run holds no more of the visited set
// resident than the run that wrote the snapshot did. Every fresh delta
// table is sized for what it will take before it takes it (fpSet.reserve:
// a mem-store snapshot arrives in table order).
func (s *spillStore) SeedVisited(fps []uint64, keys []string) error {
	// A partition's share of the budget, floored at a delta table's
	// initial footprint so tiny budgets batch flushes instead of spilling
	// every entry. A delta table may have as many slots as that holds, and
	// takes 70% of that many entries before it would grow.
	partBudget := max(s.budget/int64(len(s.parts)), 8<<10)
	slots := 1024
	for int64(slots)*2*8 <= partBudget {
		slots <<= 1
	}
	chunk := slots * 7 / 10
	left := partCounts(fps, len(s.parts)) // entries still to come, per partition
	room := make([]int, len(s.parts))     // entries the current delta table still takes
	mask := uint64(len(s.parts) - 1)
	for i, fp := range fps {
		part := fp & mask
		p := &s.parts[part]
		var full bool // the partition's delta has reached its share of the budget
		if s.ctx.stringKeys {
			if _, dup := p.deltaKeys[keys[i]]; !dup {
				p.deltaKeys[keys[i]] = fp
				p.deltaKeyBytes += int64(len(keys[i])) + mapEntryOverhead
			}
			full = p.deltaKeyBytes > partBudget
		} else {
			if room[part] == 0 {
				room[part] = min(left[part], chunk)
				p.deltaFP.reserve(room[part])
			}
			p.deltaFP.Add(fp)
			room[part]--
			full = room[part] == 0
		}
		left[part]--
		if full && left[part] > 0 {
			s.foldPeak()
			if err := s.spillDelta(p); err != nil {
				return err
			}
		}
	}
	s.foldPeak()
	return nil
}
