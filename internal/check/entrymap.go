package check

// This file is the provenance run's per-level maps from visited entries
// to values (claimState): the claim each admission is credited to
// (pending) and the paths a later, smaller claim took over (overrides,
// settled). They are set and read at claim rate, so they are laid out
// like the visited table: pointer-free slots probed from the fingerprint
// over dense columns, kept from level to level and cleared in place at
// the barrier.

// entryMap maps visited entries to values the way the visited table
// keys them: by fingerprint, with the key compared byte for byte, and an
// exact map only for a key whose fingerprint a different key already
// holds (and for fingerprint 0, which cannot take a slot), so that under
// exact keys a shared fingerprint never merges two configurations. A
// lookup hashes 8 bytes, not a whole exact key. An entry keeps the key it
// was first set with, which must be the visited table's copy
// (keyTable.claim's stored key), never a view of scratch. It is not safe
// for concurrent use: the engine sets and reads it under its claim lock,
// or from the one worker a level has, and reads settled while nothing
// sets it.
//
//   - The slots are parallel arrays, as keyTable's: fps, 0 marking an
//     empty slot, and at, the column index of the slot's entry, probed
//     linearly from probeStart's remix of the fingerprint. Growth
//     rehashes 12-byte slots, never a key or a value.
//   - The columns are dense, in insertion order: keys, the stored keys
//     (views of the visited table's arena, 16 bytes each, "" under
//     fingerprint keys), and vals. V holds no pointer, so keys is the one
//     column the collector scans.
type entryMap[V any] struct {
	fps   []uint64
	at    []uint32
	mask  uint64
	shift uint
	n     int // entries in the slots
	keys  []string
	vals  []V
	// exact maps each key the slots cannot hold to its column index; nil
	// until the first.
	exact map[string]uint32
}

// newEntryMap returns an empty map.
func newEntryMap[V any]() entryMap[V] {
	var m entryMap[V]
	m.setSlots(keyTableSlots)
	return m
}

func (m *entryMap[V]) setSlots(size int) {
	m.fps, m.at = make([]uint64, size), make([]uint32, size)
	m.mask, m.shift = uint64(size-1), slotShift(size)
}

// find returns the column index of (fp, key) if the map holds it, and
// otherwise the empty slot it would take (-1: the exact map).
func (m *entryMap[V]) find(fp uint64, key string) (i uint32, ok bool, free int) {
	if fp != 0 {
		s := probeStart(fp, m.shift)
		for ; m.fps[s] != 0; s = (s + 1) & m.mask {
			if m.fps[s] != fp {
				continue
			}
			if i = m.at[s]; m.keys[i] == key {
				return i, true, -1
			}
			break
		}
		if m.fps[s] == 0 {
			return 0, false, int(s)
		}
	}
	i, ok = m.exact[key]
	return i, ok, -1
}

// get returns the value of (fp, key), or nil if the map does not hold it,
// and the key the map holds for it. The pointer is valid until the next
// set or clear.
func (m *entryMap[V]) get(fp uint64, key string) (v *V, stored string) {
	if i, ok, _ := m.find(fp, key); ok {
		return &m.vals[i], m.keys[i]
	}
	return nil, ""
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
	if free < 0 {
		if m.exact == nil {
			m.exact = map[string]uint32{}
		}
		m.exact[key] = i
		return
	}
	m.fps[free], m.at[free] = fp, i
	m.n++
	// Grow at 70% load, as the visited table does.
	if uint64(m.n)*10 > uint64(len(m.fps))*7 {
		m.grow()
	}
}

// grow doubles the slots and rehashes them by fingerprint.
func (m *entryMap[V]) grow() {
	fps, at := m.fps, m.at
	m.setSlots(2 * len(fps))
	for j, fp := range fps {
		if fp == 0 {
			continue
		}
		s := probeStart(fp, m.shift)
		for m.fps[s] != 0 {
			s = (s + 1) & m.mask
		}
		m.fps[s], m.at[s] = fp, at[j]
	}
}

func (m *entryMap[V]) len() int { return len(m.vals) }

// clear empties the map in place: the slots and columns keep their
// storage for the next level. The stored keys are dropped, so that the
// map keeps none of the visited table's chunks alive.
func (m *entryMap[V]) clear() {
	if m.n > 0 {
		clear(m.fps)
		m.n = 0
	}
	clear(m.keys)
	m.keys, m.vals = m.keys[:0], m.vals[:0]
	clear(m.exact)
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
	s, _ := m.get(fp, key)
	if s == nil {
		return nil, false
	}
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

// claimant is the claim a provenance run credits an admission to: the
// parent's fingerprint and, under exact keys, its key's index in the
// level's parent arena (claimState.parentKeys; noParentKey otherwise), and
// the pid that stepped it.
type claimant struct {
	parentFP uint64
	parentAt uint32
	pid      int32
}

// noParentKey is a claimant's parentAt outside exact-key runs.
const noParentKey = ^uint32(0)
