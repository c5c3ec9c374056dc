package check

import "sync/atomic"

// memStore is the in-memory state store: the visited table and per-worker
// next-frontier lists — one table probe per candidate, nodes retained in
// RAM, no lock of its own.
type memStore struct {
	visited keyedSet
	next    []nodeQueue
	peak    int64
}

// nodeQueue is one worker's slice of the next frontier, padded so that two
// workers appending do not write the same cache line.
type nodeQueue struct {
	nodes []*Node
	_     [40]byte
}

func newMemStore(ctx storeCtx) *memStore {
	return &memStore{visited: newKeyedSet(ctx.stringKeys), next: make([]nodeQueue, ctx.workers)}
}

func (s *memStore) Claim(fp uint64, key []byte) (string, bool) {
	return s.visited.claim(fp, key)
}

func (s *memStore) Queue(worker int, n *Node) bool {
	q := &s.next[worker]
	q.nodes = append(q.nodes, n)
	return true
}

func (s *memStore) EndLevel(maxNext int) (LevelResult, error) {
	total := 0
	for i := range s.next {
		total += len(s.next[i].nodes)
	}
	next := make([]*Node, 0, total)
	for i := range s.next {
		q := &s.next[i]
		next = append(next, q.nodes...)
		clear(q.nodes)
		q.nodes = q.nodes[:0]
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
		// The engine closes admissions on a truncation, so the dropped
		// nodes' buffers have no taker: they are left to the collector.
		clear(next[maxNext:])
		next = next[:maxNext]
		res.Truncated = true
	}
	res.Frontier = &memSource{nodes: next}
	return res, nil
}

// foldPeak raises the resident high-water mark to the visited table's
// current footprint.
func (s *memStore) foldPeak() { s.peak = max(s.peak, s.visited.bytes()) }

func (s *memStore) Stats() StoreStats {
	// Async runs never reach EndLevel, so sample here too (Stats runs
	// after the run ends, when no worker is live).
	s.foldPeak()
	return StoreStats{Kind: StoreMem, PeakResidentBytes: s.peak}
}

func (s *memStore) Close() error { return nil }

func (s *memStore) DumpVisited(emit func(fp uint64, key string) error) error {
	return s.visited.forEach(emit)
}

func (s *memStore) SeedVisited(fps []uint64, keys []string) error {
	s.visited.reserve(len(fps), 0)
	for i, fp := range fps {
		key := ""
		if keys != nil {
			key = keys[i]
		}
		s.visited.add(fp, key)
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
