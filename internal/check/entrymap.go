package check

// This file is the provenance run's per-level maps from visited entries
// to paths (claimState): the paths a later, smaller claim took over
// (overrides, settled). They key entries as the visited table does, on its
// slot index (slotindex.go), not by the table's entry index, since the
// next level reads settled after a flush may have renumbered the table;
// they are kept from level to level and cleared in place at the barrier.

// entryMap maps visited entries to values the way the visited table
// keys them: by fingerprint, with the key compared byte for byte, so that
// under exact keys a shared fingerprint never merges two configurations.
// A lookup hashes 8 bytes, not a whole exact key. An entry keeps the key
// it was first set with, which must be the visited table's copy
// (keyTable.claim's stored key), never a view of scratch. It is not safe
// for concurrent use: the engine sets and reads it under its claim lock,
// or from the one worker a level has, and reads settled while nothing
// sets it.
//
// The index's slots hold column indices. The columns are dense, in
// insertion order: keys, the stored keys (views of the visited table's
// arena, 16 bytes each, "" under fingerprint keys), and vals. V holds no
// pointer, so keys is the one column the collector scans.
type entryMap[V any] struct {
	idx  slotIndex
	keys []string
	vals []V
}

// newEntryMap returns an empty map.
func newEntryMap[V any]() entryMap[V] { return entryMap[V]{idx: newSlotIndex(true)} }

// find returns the column index of (fp, key) if the map holds it, and
// otherwise the slot a new entry takes (slotIndex.miss).
func (m *entryMap[V]) find(fp uint64, key string) (i uint32, ok bool, free int) {
	s, i, held := m.idx.probe(fp, false)
	if held && m.keys[i] == key {
		return i, true, s
	}
	return m.idx.miss(s, held, key)
}

// set sets the value of (fp, key). An entry the map holds keeps its
// stored key, so only a new entry's key must be the visited table's copy.
func (m *entryMap[V]) set(fp uint64, key string, v V) {
	i, ok, free := m.find(fp, key)
	if ok {
		m.vals[i] = v
		return
	}
	i = uint32(len(m.vals))
	m.vals = append(m.vals, v)
	m.keys = append(m.keys, key)
	if m.idx.put(free, fp, key, i) {
		m.idx.grow()
	}
}

func (m *entryMap[V]) len() int { return len(m.vals) }

// clear empties the map in place: the slots and columns keep their
// storage for the next level. The stored keys are dropped, so that the
// map keeps none of the visited table's chunks alive.
func (m *entryMap[V]) clear() {
	m.idx.clear()
	clear(m.keys)
	m.keys, m.vals = m.keys[:0], m.vals[:0]
}

// pathMap is an entryMap of root-to-node pid paths, held end to end in
// one byte column: the provenance overrides a level collects, and the
// settled ones the next level's nodes take.
type pathMap struct {
	entryMap[pathSpan]
	bytes []byte
}

// pathSpan is where a path lies in pathMap.bytes.
type pathSpan struct{ off, n uint32 }

func newPathMap() pathMap { return pathMap{entryMap: newEntryMap[pathSpan]()} }

// path returns the path of (fp, key), a view of the map valid until its
// next clear.
func (m *pathMap) path(fp uint64, key string) ([]byte, bool) {
	i, ok, _ := m.find(fp, key)
	if !ok {
		return nil, false
	}
	s := m.vals[i]
	return m.bytes[s.off : s.off+s.n : s.off+s.n], true
}

// setPath sets the path of (fp, key) to prefix followed by pid; key is
// the visited table's copy, as for set.
func (m *pathMap) setPath(fp uint64, key string, prefix []byte, pid byte) {
	off := len(m.bytes)
	m.bytes = append(append(m.bytes, prefix...), pid)
	m.set(fp, key, pathSpan{uint32(off), uint32(len(prefix) + 1)})
}

func (m *pathMap) clear() {
	m.entryMap.clear()
	m.bytes = m.bytes[:0]
}
