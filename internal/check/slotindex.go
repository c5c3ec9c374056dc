package check

import "math/bits"

// slotIndex is the open-addressing index under the visited table
// (keyTable) and the provenance maps (entryMap[V]). It finds an entry by
// its fingerprint and names it by an index into its owner's storage — the
// visited table's tuple arena, an entryMap's columns — so that only the
// owner reads keys and the index never hashes one. It is not safe for
// concurrent use; probe and miss alone may run concurrently, with
// themselves.
//
//   - The slots are parallel arrays: fps, 0 marking an empty slot, and
//     at, the index of the slot's entry. An owner whose fingerprint is the
//     whole entry and who names no entry by index (the visited table under
//     fingerprint keys, outside provenance runs) keeps no at, so its slots
//     are 8 bytes; the others are 12. Slots are pointer-free,
//     so the collector never scans them, and growth rehashes fingerprints
//     and indices, never a key.
//   - A probe runs linearly from probeStart's remix of the fingerprint to
//     the slot holding it or to an empty one. The fingerprints one table
//     holds can share bits (a distributed peer owns a range of the top
//     six), so probe starts are not cut from the fingerprint as it is:
//     probeStart takes the high bits of a multiplicative remix (Fibonacci
//     hashing).
//   - The slots grow, doubling, when they pass 70% load, so probe chains
//     stay short. A reserve sizes them for a bulk load at once.
//   - The first key a fingerprint is set with takes its slot. A different
//     key with the same fingerprint goes to shared, an exact map, so a
//     colliding pair is two entries, never one; under the degenerate slot
//     hash every key but the first takes that path. A key has one
//     fingerprint (the hash of its configuration), so shared is keyed by
//     the key alone: the owner's stored key, never a view of scratch. The
//     zero fingerprint, which cannot take a slot, goes there too (under
//     fingerprint keys as the one entry of key "").
type slotIndex struct {
	fps   []uint64
	at    []uint32 // nil: the fingerprint is the entry
	mask  uint64
	shift uint // slotShift(len(fps)), for probeStart
	n     int  // entries in the slots
	grows int  // doublings under load (a reserve is not one)
	// shared holds each entry the slots cannot hold; nil until the first.
	shared map[string]sharedEntry
}

type sharedEntry struct {
	fp uint64
	at uint32
}

// keyTableSlots is a new index's size. It is small, since many searches
// are (a Lemma 13 bivalence test), and so is a spill store's delta at a
// barrier that admitted little; growth rehashes 8- or 12-byte slots.
const keyTableSlots = 64

// sharedEntryBytes is what resident accounting charges a shared entry on
// top of its key: a Go map slot with its string header and value.
const sharedEntryBytes = 48

// newSlotIndex returns an empty index; indexed says whether its slots
// carry entry indices.
func newSlotIndex(indexed bool) slotIndex {
	var x slotIndex
	x.setSlots(keyTableSlots, indexed)
	return x
}

func (x *slotIndex) setSlots(size int, indexed bool) {
	x.fps = make([]uint64, size)
	if indexed {
		x.at = make([]uint32, size)
	}
	x.mask = uint64(size - 1)
	x.shift = slotShift(size)
}

// slotShift is the shift probeStart takes for a table of size slots, a
// power of two.
func slotShift(size int) uint { return uint(64 - bits.Len(uint(size)) + 1) }

// probeStart is where fp's probe starts in a table of 64-shift bits of
// slots: the high bits of fp remixed multiplicatively (Fibonacci
// hashing), so that fingerprints sharing bits spread over the table.
func probeStart(fp uint64, shift uint) uint64 { return (fp * 0x9E3779B97F4A7C15) >> shift }

// probe returns the slot fp's probe ends on and whether it holds fp
// (held, with its entry index at) or is empty. With take, an empty slot
// is taken there and then for a new entry: it gets fp and counts, and
// the caller writes the entry's index and checks the growth bound.
// Writing the fingerprint inside the loop, not after it, is what keeps
// the fingerprint claim path as fast as a loop of its own (a claim that
// left the loop first measured 3% slower on row 3). Fingerprint 0 takes
// no slot: its probe ends on none (s < 0).
func (x *slotIndex) probe(fp uint64, take bool) (s int, at uint32, held bool) {
	if fp == 0 {
		return -1, 0, false
	}
	for i := probeStart(fp, x.shift); ; i = (i + 1) & x.mask {
		switch x.fps[i] {
		case 0:
			if take {
				x.fps[i] = fp
				x.n++
			}
			return int(i), 0, false
		case fp:
			if x.at != nil {
				at = x.at[i]
			}
			return int(i), at, true
		}
	}
}

// miss finishes a lookup of key whose probe (s, held) did not end on
// key's entry: an empty slot is where a new entry goes; otherwise — fp 0,
// or a slot another key holds — the entry is in shared, or goes there
// (free < 0).
func (x *slotIndex) miss(s int, held bool, key string) (at uint32, ok bool, free int) {
	if s >= 0 && !held {
		return 0, false, s
	}
	sh, ok := x.shared[key]
	return sh.at, ok, -1
}

// put adds entry at with fingerprint fp on free, the slot miss returned
// (< 0: shared, under key), and reports whether the slots have passed the
// growth bound: the caller then grows them. (Leaving grow to the caller
// lets put inline into the claim path.)
func (x *slotIndex) put(free int, fp uint64, key string, at uint32) (full bool) {
	if free < 0 {
		if x.shared == nil {
			x.shared = map[string]sharedEntry{}
		}
		x.shared[key] = sharedEntry{fp, at}
		return false
	}
	x.fps[free] = fp
	if x.at != nil {
		x.at[free] = at
	}
	x.n++
	return overLoad(x.n, len(x.fps))
}

// grow doubles the slots.
func (x *slotIndex) grow() {
	x.resize(2 * len(x.fps))
	x.grows++
}

// overLoad reports whether n entries pass the growth bound of size slots.
func overLoad(n, size int) bool { return uint64(n)*10 > uint64(size)*7 }

// len is the number of entries.
func (x *slotIndex) len() int { return x.n + len(x.shared) }

// slotBytes is what a slot costs: its fingerprint and, if it has one, its
// entry index.
func (x *slotIndex) slotBytes() int64 {
	if x.at == nil {
		return 8
	}
	return 12
}

// bytes is the index's resident footprint as accounted: its slots and its
// shared entries (their keys are the owner's).
func (x *slotIndex) bytes() int64 {
	return int64(len(x.fps))*x.slotBytes() + int64(len(x.shared))*sharedEntryBytes
}

// reserve sizes the slots for n more entries under the growth bound,
// rehashing at most once.
func (x *slotIndex) reserve(n int) {
	size := len(x.fps)
	for overLoad(x.n+n, size) {
		size <<= 1
	}
	if size > len(x.fps) {
		x.resize(size)
	}
}

// resize rehashes the slots into a table of size slots, by fingerprint.
func (x *slotIndex) resize(size int) {
	fps, at := x.fps, x.at
	x.setSlots(size, at != nil)
	for j, fp := range fps {
		if fp == 0 {
			continue
		}
		s, _, _ := x.probe(fp, false) // empty: the new slots hold each fingerprint once
		x.fps[s] = fp
		if at != nil {
			x.at[s] = at[j]
		}
	}
}

// forEach calls fn on every entry: the slots in table order (sorted by
// probe start), then the shared ones.
func (x *slotIndex) forEach(fn func(fp uint64, at uint32)) {
	for i, fp := range x.fps {
		if fp == 0 {
			continue
		}
		var at uint32
		if x.at != nil {
			at = x.at[i]
		}
		fn(fp, at)
	}
	for _, sh := range x.shared {
		fn(sh.fp, sh.at)
	}
}

// clear empties the index in place, keeping its slots.
func (x *slotIndex) clear() {
	if x.n > 0 {
		clear(x.fps)
		x.n = 0
	}
	clear(x.shared)
}
