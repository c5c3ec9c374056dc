package check

import "sync/atomic"

// memStore is the in-memory state store: the engine's original
// per-partition visited tables and next-frontier slices, extracted behind
// the StateStore interface with the hot path intact — one table probe per
// candidate, no locking (single-owner partitions), nodes retained in RAM.
type memStore struct {
	ctx   storeCtx
	parts []memPart
	peak  int64
}

// memPart is one partition: its visited table and its slice of the next
// frontier.
type memPart struct {
	set  keyedSet
	next []*Node
}

func newMemStore(ctx storeCtx) *memStore {
	s := &memStore{ctx: ctx, parts: make([]memPart, ctx.parts)}
	for i := range s.parts {
		s.parts[i].set = newKeyedSet(ctx.stringKeys)
	}
	return s
}

func (s *memStore) Admit(part int, n *Node) (added, retained bool) {
	p := &s.parts[part]
	if !p.set.add(n.fp, n.key) {
		return false, true
	}
	p.next = append(p.next, n)
	return true, true
}

func (s *memStore) Has(part int, fp uint64, key string) bool {
	return s.parts[part].set.has(fp, key)
}

func (s *memStore) EndLevel(maxNext int) (LevelResult, error) {
	next := make([]*Node, 0)
	for i := range s.parts {
		p := &s.parts[i]
		next = append(next, p.next...)
		p.next = nil
	}
	s.foldPeak()

	res := LevelResult{}
	// Budget cutoff: this level may have overshot (admission is
	// unthrottled within a level so the admitted set stays a pure
	// function of the space, not of thread timing). Truncate back to
	// exactly maxNext survivors by ascending (fingerprint, key) —
	// deterministic regardless of arrival order.
	if len(next) > maxNext {
		sortNodes(next)
		for _, dropped := range next[maxNext:] {
			s.ctx.recycle(dropped)
		}
		next = next[:maxNext]
		res.Truncated = true
	}
	res.Frontier = &memSource{nodes: next}
	return res, nil
}

// foldPeak raises the resident high-water mark to the visited tables'
// current footprint.
func (s *memStore) foldPeak() {
	var resident int64
	for i := range s.parts {
		resident += s.parts[i].set.bytes()
	}
	s.peak = max(s.peak, resident)
}

func (s *memStore) Stats() StoreStats {
	// Async runs never reach EndLevel, so sample here too (Stats runs
	// after the run ends, when no owner goroutine is live).
	s.foldPeak()
	return StoreStats{Kind: StoreMem, PeakResidentBytes: s.peak}
}

func (s *memStore) Close() error { return nil }

func (s *memStore) DumpVisited(emit func(fp uint64, key string) error) error {
	for i := range s.parts {
		if err := s.parts[i].set.forEach(emit); err != nil {
			return err
		}
	}
	return nil
}

func (s *memStore) SeedVisited(fps []uint64, keys []string) error {
	for i, n := range partCounts(fps, len(s.parts)) {
		s.parts[i].set.reserve(n, 0)
	}
	mask := uint64(len(s.parts) - 1)
	for i, fp := range fps {
		key := ""
		if keys != nil {
			key = keys[i]
		}
		s.parts[fp&mask].set.add(fp, key)
	}
	return nil
}

// memSource serves an in-RAM frontier slice: workers claim disjoint
// chunks with one atomic add per batch.
type memSource struct {
	nodes  []*Node
	cursor atomic.Int64
}

func (s *memSource) Size() int { return len(s.nodes) }

func (s *memSource) Next(buf []*Node) int {
	n := int64(len(buf))
	end := s.cursor.Add(n)
	start := end - n
	if start >= int64(len(s.nodes)) {
		return 0
	}
	if end > int64(len(s.nodes)) {
		end = int64(len(s.nodes))
	}
	copy(buf, s.nodes[start:end])
	return int(end - start)
}
