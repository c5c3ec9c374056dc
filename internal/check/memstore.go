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

// memPart is one partition: its visited table (fingerprint set or exact
// key map, per the keying mode) and its slice of the next frontier.
type memPart struct {
	fps *fpSet
	// keys maps exact encoding key -> fingerprint (the fp rides along so
	// checkpoint snapshots can re-derive partition routing on resume).
	keys     map[string]uint64
	keyBytes int64
	next     []*Node
}

func newMemStore(ctx storeCtx) *memStore {
	s := &memStore{ctx: ctx, parts: make([]memPart, ctx.parts)}
	for i := range s.parts {
		if ctx.stringKeys {
			s.parts[i].keys = map[string]uint64{}
		} else {
			s.parts[i].fps = newFpSet(1024)
		}
	}
	return s
}

func (s *memStore) Admit(part int, n *Node) (added, retained bool) {
	p := &s.parts[part]
	if s.ctx.stringKeys {
		if _, dup := p.keys[n.key]; dup {
			return false, true
		}
		p.keys[n.key] = n.fp
		p.keyBytes += int64(len(n.key)) + mapEntryOverhead
	} else if !p.fps.Add(n.fp) {
		return false, true
	}
	p.next = append(p.next, n)
	return true, true
}

func (s *memStore) Has(part int, fp uint64, key string) bool {
	p := &s.parts[part]
	if s.ctx.stringKeys {
		_, ok := p.keys[key]
		return ok
	}
	return p.fps.Has(fp)
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
		p := &s.parts[i]
		if s.ctx.stringKeys {
			resident += p.keyBytes
		} else {
			resident += int64(len(p.fps.slots)) * 8
		}
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

// DumpVisited streams every visited entry to emit, for checkpoint
// snapshots (runs at a level barrier only).
func (s *memStore) DumpVisited(emit func(fp uint64, key string) error) error {
	for i := range s.parts {
		p := &s.parts[i]
		if s.ctx.stringKeys {
			for k, fp := range p.keys {
				if err := emit(fp, k); err != nil {
					return err
				}
			}
			continue
		}
		if err := p.fps.forEach(func(fp uint64) error { return emit(fp, "") }); err != nil {
			return err
		}
	}
	return nil
}

// SeedVisited loads a checkpoint's visited snapshot (checkpoint resume).
func (s *memStore) SeedVisited(fps []uint64, keys []string) error {
	mask := uint64(len(s.parts) - 1)
	if s.ctx.stringKeys {
		for i, fp := range fps {
			p := &s.parts[fp&mask]
			if _, dup := p.keys[keys[i]]; !dup {
				p.keys[keys[i]] = fp
				p.keyBytes += int64(len(keys[i])) + mapEntryOverhead
			}
		}
		return nil
	}
	for i, n := range partCounts(fps, len(s.parts)) {
		s.parts[i].fps.reserve(n)
	}
	for _, fp := range fps {
		s.parts[fp&mask].fps.Add(fp)
	}
	return nil
}

// mapEntryOverhead is the per-entry bookkeeping estimate (header, bucket
// slot, string header) added to key bytes in resident-memory accounting.
const mapEntryOverhead = 48

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
