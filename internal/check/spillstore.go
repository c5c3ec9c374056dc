package check

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/fault"
)

// spillStore is the frontier engine's one state store (store.go): the
// visited set and the next level's queue, resident in RAM until a byte
// budget says otherwise, so the reachable space can be bounded by disk (and
// time) instead of RAM.
//
// Without a budget (Store "" or "mem") it never leaves RAM: the delta
// table below is the whole visited set, a claim is one probe of it, a
// queued node one append to its worker's slice, and a barrier concatenates
// the slices and cuts them back to the level's budget by the rule the
// spooled frontier is cut by (kthEntry). It records no admission list,
// creates no directory and writes no file.
//
// Under a budget (Store "spill") two things leave RAM.
//
// Deduplication — delayed duplicate detection over sorted runs:
//
//   - The resident *delta* table (a keyTable) holds the visited entries
//     admitted since the last spill. Candidates are checked against the
//     delta only, so a claim costs what it costs without a budget.
//
//   - When the delta's size exceeds the budget at a level barrier, it is
//     flushed to a new *sorted run* file — an entry stream (entry.go), the
//     layout a checkpoint's visited deltas are written in — and cleared.
//     A configuration visited before the spill is no longer resident, so a
//     later re-encounter is admitted *tentatively*.
//
//   - Under fingerprint keys every key is empty, so the store orders
//     packed fingerprints as integers wherever it orders entries: a
//     flushed delta's slot array is compacted and radix-sorted where it
//     lies (keyTable.drainSorted), and a level's suspects and its budget
//     cutoff are sorted as []uint64 too. Only exact-key entries are
//     compared as (fingerprint, key) pairs, a tie by the encodings the
//     run's dictionary holds for the keys' refs. A run's exact keys are
//     ref tuples: the dictionary lives as long as the run, and so do the
//     runs.
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
//     the barrier. A record carries the node's slot-hash vector, not its
//     refs, which a distributed run's other processes could not read: the
//     reader resolves each hash back to a ref through the run's slot
//     dictionary, which already holds every slot a node can hold — resident
//     memory that grows with *distinct slots*, typically far below the
//     configuration count. Consecutive records of a segment are mostly
//     siblings, so each claimed block remembers the slots it resolved last
//     (model.SlotCache, a few per slot index): a node looks up only the
//     slots it does not hold. Under exact keys the record carries the
//     node's key, its ref tuple, instead, and the reader copies the refs
//     back: segments never outlive the run. Nothing is encoded to spool a
//     node. A
//     provenance run's records carry each node's path as admitted; the
//     engine patches in the path of the claim that won the node as it
//     hands the node out.
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
	delta *keyTable

	// bloom summarizes every fingerprint spilled so far (created at the
	// first spill); admissions it proves fresh skip the barrier's run-file
	// merge. It and the runs change only at barriers and seeding, so
	// claims read it without a lock of their own.
	bloom *bloomFilter

	// This level's tentative admissions, in claim order; which of them the
	// Bloom prefilter could not prove fresh (indices into level), the
	// only ones the barrier merge probes the runs for; and which of those
	// it found on disk. Recorded only under a budget.
	level    entryList
	suspects []int
	dead     []bool
	// The level EndLevel settled for CutLevel: its published segments
	// (one slot per worker, "" for none) and its surviving admissions.
	segs      []string
	survivors int

	runs   []spillRun
	runSeq int

	// added is every entry the level cuts kept since the last takeAdded,
	// recorded only when keep is set (checkpointing runs set it).
	keep  bool
	added entryList

	// stats moves at barriers and seeding, and PrefilterHits under the
	// claim lock.
	stats StoreStats
}

// spillQueue is one worker's share of the next frontier: the nodes
// themselves (no budget), or the segment they are spooled to. Which
// worker queued a node says nothing about where its entry sits in the
// level's admissions; what the barrier revokes or truncates it therefore
// names by entry (spillSource.revoked and cut).
type spillQueue struct {
	next  []*Node      // unbudgeted store only
	spool *blockWriter // this level's segment; nil until a node is spooled
	_     [32]byte     // a cache line per worker
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
		delta: newKeyTable(ctx.keyStride(), ctx.indexed)}
	if s.budget == 0 {
		return s, nil
	}
	s.stats.Kind = StoreSpill
	s.remat = rematerialiser{ctx: ctx}
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
// node for it exists — and the entry's index in the delta, new or not
// (keyTable.claim). A flush to a sorted run (CutLevel) starts the delta,
// and its indices, over at 0. key is "" outside exact-key runs; it may be
// a view of scratch. Calls must not overlap (the engine holds the claim
// lock).
func (s *spillStore) Claim(fp uint64, key string) (uint32, bool) {
	at, added := s.delta.claim(fp, key)
	if !added || s.budget == 0 {
		return at, added
	}
	// Prefilter verdict: a fingerprint the bloom has never seen appears
	// in no spilled run (the filter has no false negatives; in exact-key
	// mode an absent fingerprint implies the (fp, key) pair is absent
	// too), so the admission is final and skips the barrier merge.
	s.level.add(fp, s.delta.key(at))
	if s.bloom != nil && s.bloom.has(fp) {
		s.suspects = append(s.suspects, len(s.level.fps)-1)
		s.stats.PrefilterHits++
	}
	return at, true
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
	s.ctx.recycle(worker, n)
}

// spoolNode appends n's record to worker's segment.
func (s *spillStore) spoolNode(q *spillQueue, worker int, n *Node) error {
	if q.spool == nil {
		w, err := newBlockWriter(filepath.Join(s.dir, fmt.Sprintf("seg-%d-w%d", s.seq, worker)), artifactSegment, true)
		if err != nil {
			return fmt.Errorf("spill store: %w", err)
		}
		q.spool = w
	}
	q.spool.buf = appendNodeRecord(q.spool.buf, n, s.ctx.dict, s.ctx.stringKeys)
	if err := q.spool.flushFull(); err != nil {
		return fmt.Errorf("spill store: segment write: %w", err)
	}
	return nil
}

// EndLevel runs at the level barrier and settles the level's admissions:
// it publishes the level's segments, resolves delayed duplicates and
// returns how many admissions survive. CutLevel then cuts them to the
// budget and hands out the next frontier; nothing may be queued between
// the two.
func (s *spillStore) EndLevel() (int, error) {
	if s.budget == 0 {
		// The unbudgeted store never writes a run and so has no delayed
		// duplicate to revoke: every queued node survives.
		n := 0
		for i := range s.queues {
			n += len(s.queues[i].next)
		}
		return n, nil
	}
	// Publish the level's segment files before anything can read them.
	s.segs = make([]string, len(s.queues))
	for i := range s.queues {
		q := &s.queues[i]
		if q.spool != nil {
			w := q.spool
			q.spool = nil
			written, err := w.finish()
			if err != nil {
				return 0, fmt.Errorf("spill store: segment finish: %w", err)
			}
			s.stats.BytesSpilled += written
			s.segs[i] = w.path
		}
	}
	revoked, err := s.markDead()
	if err != nil {
		return 0, err
	}
	s.survivors = len(s.level.fps) - revoked
	return s.survivors, nil
}

// CutLevel ends the level EndLevel settled: it enforces the budget cutoff
// (at most maxNext of the survivors are kept, chosen by ascending
// (fingerprint, key) — the engine's deterministic truncation order),
// spills the delta if it is over budget, and returns the next level's
// frontier.
func (s *spillStore) CutLevel(maxNext int) (LevelResult, error) {
	if s.budget == 0 {
		return s.cutResident(maxNext), nil
	}
	res, err := s.cutSpooled(maxNext)
	if err != nil {
		return LevelResult{}, err
	}

	// Reset per-level state and apply the byte budget: when the resident
	// delta exceeds it, flush it to a fresh sorted run and compact once
	// runFanout runs have accumulated. The Bloom prefilter counts toward
	// the reported peak (it is resident memory) but not toward the spill
	// trigger: spilling cannot shrink a filter, so triggering on its
	// constant footprint would only force a futile delta flush at every
	// subsequent barrier. The level's keys are cleared, not just cut: a
	// stale one would keep a spilled delta's arena chunk alive.
	clear(s.level.keys)
	s.level.fps, s.level.keys = s.level.fps[:0], s.level.keys[:0]
	s.suspects, s.dead = s.suspects[:0], s.dead[:0]
	s.foldPeak()
	if s.delta.bytes() > s.budget {
		if err := s.spillDelta(); err != nil {
			return LevelResult{}, err
		}
	}

	s.seq++
	return res, nil
}

// cutResident cuts a level of the unbudgeted store: it concatenates the
// workers' queues and keeps, in that admission order, the maxNext
// smallest nodes by (fingerprint, key) — the cut cutSpooled makes, so both
// stores hand the next level over in the same order. The store has
// nothing else to do at the barrier.
func (s *spillStore) cutResident(maxNext int) LevelResult {
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
	// of the space, not of thread timing). Entries are unique, so the
	// maxNext-th smallest separates the kept nodes from the dropped ones
	// whatever their arrival order.
	d := s.ctx.dict
	if len(next) > maxNext {
		kept := 0
		if maxNext > 0 {
			cut := kthEntry(d, s.ctx.stringKeys, len(next), maxNext-1, func(yield func(entry) bool) {
				for _, n := range next {
					if !yield(entry{n.fp, s.ctx.nodeKey(n)}) {
						return
					}
				}
			})
			for _, n := range next {
				if !entryLess(d, cut, entry{n.fp, s.ctx.nodeKey(n)}) {
					next[kept] = n
					kept++
				}
			}
		}
		// The engine closes admissions on a truncation, so the dropped
		// nodes have no taker: they are left to the collector.
		clear(next[kept:])
		next = next[:kept]
		res.Truncated = true
	}
	if s.keep {
		s.added.fps = slices.Grow(s.added.fps, len(next))
		for _, n := range next {
			// The entry keeps the visited table's copy of the key: the
			// node's refs are rewritten once it is recycled.
			key := s.ctx.nodeKey(n)
			if key != "" {
				at, _, _ := s.delta.find(n.fp, key)
				key = s.delta.key(at)
			}
			s.added.add(n.fp, key)
		}
	}
	res.Frontier = &memSource{nodes: next}
	return res
}

// cutSpooled cuts a level spooled to segments: it resolves the budget
// cutoff on the survivors EndLevel left and streams the kept ones back in
// admission order.
func (s *spillStore) cutSpooled(maxNext int) (LevelResult, error) {
	segs, survivors := s.segs, s.survivors
	s.segs = nil
	// Budget cutoff, by the engine's canonical (fingerprint, key) order.
	// Entries are globally unique (dedup guarantees it), so the cutoff
	// entry cleanly separates survivors from drops: the source drops the
	// records past it by that comparison alone.
	truncated := survivors > maxNext
	kept := min(survivors, maxNext)
	var cut *entry
	d := s.ctx.dict
	if truncated && maxNext > 0 {
		e := kthEntry(d, s.ctx.stringKeys, survivors, maxNext-1, func(yield func(entry) bool) {
			for j := range s.level.fps {
				if !s.dead[j] && !yield(s.level.at(j)) {
					return
				}
			}
		})
		cut = &e
	}
	// The admissions revoked at the barrier, by entry; nil when there are
	// none.
	var revoked *keyTable
	for j := range s.level.fps {
		e := s.level.at(j)
		switch {
		case s.dead[j]:
			if revoked == nil {
				revoked = newKeyTable(s.ctx.keyStride(), false)
			}
			revoked.claim(e.fp, e.key)
		case s.keep && kept > 0 && (cut == nil || !entryLess(d, *cut, e)):
			s.added.add(e.fp, e.key)
		}
	}

	// Every ref a record of the level holds was interned before this
	// barrier: the reader checks refs against these counts.
	s.remat.values, s.remat.states = d.Len()
	src := &spillSource{store: s, size: kept, segs: segs, revoked: revoked, cut: cut,
		readers: make([]*artifactScanner, len(segs))}
	s.source = src
	for i, seg := range segs {
		if seg == "" {
			continue
		}
		if kept == 0 { // nothing to hand out
			os.Remove(seg)
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
	return LevelResult{Frontier: src, Truncated: truncated}, nil
}

// markDead stream-merges the level's sorted admissions against each sorted
// run, marking entries already present on disk, and returns how many it
// marked. Admissions the Bloom prefilter proved fresh are excluded up
// front — they cannot appear in any run — so the merge (and the run I/O
// it drives) costs only the bloom-positive suspects. It reads runs
// sequentially and stops each as soon as the suspect list is exhausted.
func (s *spillStore) markDead() (int, error) {
	for len(s.dead) < len(s.level.fps) {
		s.dead = append(s.dead, false)
	}
	if len(s.suspects) == 0 || len(s.runs) == 0 {
		return 0, nil
	}
	order := s.sortSuspects()
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

// sortSuspects sorts the level's suspects into entry order. Under
// fingerprint keys it sorts their fingerprints as integers and finds each
// suspect's place by binary search (a level's fingerprints are distinct);
// only exact keys compare (fingerprint, key) pairs.
func (s *spillStore) sortSuspects() []int {
	order := s.suspects
	if s.ctx.stringKeys {
		slices.SortFunc(order, func(i, j int) int { return entryCompare(s.ctx.dict, s.level.at(i), s.level.at(j)) })
		return order
	}
	fps := make([]uint64, len(order))
	for j, i := range order {
		fps[j] = s.level.fps[i]
	}
	sortFingerprints(fps)
	sorted := make([]int, len(order))
	for _, i := range order {
		j, _ := slices.BinarySearch(fps, s.level.fps[i])
		sorted[j] = i
	}
	return sorted
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
		for idx < len(order) && entryLess(s.ctx.dict, s.level.at(order[idx]), e) {
			idx++
		}
		if idx < len(order) && s.level.at(order[idx]) == e {
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
	if s.delta.len() == 0 {
		return nil
	}
	w, err := s.newRun()
	if err != nil {
		return err
	}
	// Summarize the flushed fingerprints in the prefilter as they leave
	// RAM. The filter is sized once from the byte budget (a fifth of it,
	// ~1% false positives for the first few flushes); overfilling it only
	// raises the false-positive rate — more barrier merge work, never a
	// wrong verdict — so it is never rebuilt.
	if s.bloom == nil {
		s.bloom = newBloomFilter(s.budget / 5)
	}
	err = s.delta.drainSorted(s.ctx.dict, func(fp uint64, key string) error {
		s.bloom.add(fp)
		return w.addEntry(fp, key)
	})
	if err != nil {
		w.abort()
		return fmt.Errorf("spill store: run write: %w", err)
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
			if live[i] && (!found || entryLess(s.ctx.dict, heads[i], heads[min])) {
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
// without a budget the visited table only grows and CutLevel leaves the
// peak alone, and async runs never reach a barrier (Stats runs after the
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
	for _, seg := range s.segs { // a level settled and never cut
		if seg != "" {
			os.Remove(seg)
		}
	}
	s.segs = nil
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
// (dictionary lookups, slot-hash recomputation) happens outside it.
type spillSource struct {
	store *spillStore
	size  int
	segs  []string // the workers' segment paths, for error reports
	// revoked holds the admissions revoked at the barrier (nil: none), and
	// the budget cut drops every record past cut (nil: no cut); both are
	// read-only once the source is handed out.
	revoked *keyTable
	cut     *entry

	mu      sync.Mutex
	cur     int
	readers []*artifactScanner
	partial []*segBlock // claimed blocks handed back with records left

	pool sync.Pool
}

// segBlock is one claimed block of segment seg, decoded as far as off.
type segBlock struct {
	seg     int
	data    []byte
	off     int
	scratch recScratch // of whoever holds the block
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

func (s *spillSource) Next(w int, buf []*Node) int {
	n := 0
	// Once the run has stopped — after a read or decode failure the stream
	// positions are not trustworthy — hand out nothing more.
	for n == 0 && !s.store.ctx.stopped() {
		b := s.claim()
		if b == nil {
			break
		}
		for n < len(buf) && b.off < len(b.data) {
			node, err := s.decode(w, b)
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

// decode rebuilds the next record of b from worker w's supply, or returns
// nil for one dropped at the barrier. Entries are unique per level, so the
// fingerprint (or, under exact keys, the key) identifies the record. Every
// slot a spooled node holds is in the run's dictionary, so a miss is
// corruption.
func (s *spillSource) decode(w int, b *segBlock) (*Node, error) {
	rec, err := b.next(s.segs[b.seg])
	if err != nil {
		return nil, err
	}
	// The key is compared, not kept: a view of the block will do.
	e := entry{fp: rec.FP, key: bytesView(rec.Key)}
	if s.cut != nil && entryLess(s.store.ctx.dict, *s.cut, e) || s.revoked != nil && s.revoked.has(e.fp, e.key) {
		return nil, nil
	}
	n, err := s.store.remat.node(w, &rec, &b.scratch)
	if err != nil {
		return nil, &CorruptArtifactError{Path: s.segs[b.seg], Reason: err.Error()}
	}
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

// takeAdded returns the entries the level cuts kept since the last call
// (since the store opened, the first time) and starts a new record: a
// checkpoint's visited delta. It holds each admission exactly once,
// whatever spilled, was revoked or was cut. It runs at a level barrier
// only, and the store records the entries only once keep is set.
func (s *spillStore) takeAdded() entryList {
	added := s.added
	s.added = entryList{}
	return added
}

// SeedVisited takes a checkpoint's visited set whole, after every delta's
// checksum has verified: the entries go into a delta table sized for what
// it will take before it takes it, so seeding is linear in the set
// whatever order it arrives in. It runs once, on a fresh store, before the
// first level; repeats are harmless. Under a budget the delta takes
// entries up to the budget, is flushed to a sorted run like any
// over-budget delta, and starts over, so a resumed run holds no more of
// the visited set resident than the run that wrote the snapshot did.
func (s *spillStore) SeedVisited(visited entryList) error {
	fps := visited.fps
	// The budget, floored at 16 KB (a 2,048-slot fingerprint table) so a
	// tiny budget batches the seed into runs of a few hundred entries
	// instead of flushing a run every few.
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
		s.delta.claim(fp, visited.key(i))
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
