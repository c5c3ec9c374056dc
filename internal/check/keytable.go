package check

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/model"
)

// An exact key is a configuration's ref tuple: its slot refs into the
// run's dictionary (model.Dict), one per slot, objects then states. The
// dictionary interns every slot by its encoding, byte for byte, so within
// one run two tuples are equal exactly when their configurations are, and
// the tuple decides dedup without an encoding. Refs are numbered in timing
// order, though, so a tuple never decides an order: entryCompare orders
// two tuples of one fingerprint by their configurations' encodings, read
// from the dictionary, and nothing written outside the run carries a ref.
//
// A key travels as a string: the tuple's words in native byte order, a
// view of the words with no copy (tupleKey), so that maps, entry lists,
// sorted runs and spill records handle it as they handle any string. A
// view of scratch is valid until the scratch is rewritten; the keys the
// visited table returns are views of its arena, which is never rewritten.

// tupleKey is the exact key of refs: a string view of its words.
func tupleKey(refs []uint32) string {
	if len(refs) == 0 {
		return ""
	}
	return unsafe.String((*byte)(unsafe.Pointer(&refs[0])), 4*len(refs))
}

// tupleBytes views refs' words as bytes, to be written.
func tupleBytes(refs []uint32) []byte {
	if len(refs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&refs[0])), 4*len(refs))
}

// keyRef is slot i's ref in key.
func keyRef(key string, i int) uint32 { return binary.NativeEndian.Uint32(keyView(key)[4*i:]) }

// keyTuple writes the refs of key into dst (which must hold them) and
// returns them.
func keyTuple(dst []uint32, key string) []uint32 {
	dst = dst[:len(key)/4]
	copy(tupleBytes(dst), key)
	return dst
}

// keyView views key as bytes, which must not be written.
func keyView(key string) []byte { return unsafe.Slice(unsafe.StringData(key), len(key)) }

// bytesView views b as a string, valid while b is not written.
func bytesView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// keyTable is the visited table, the one resident set of visited entries
// (entry.go) under either keying, fixed at creation: the store's visited
// set (its delta since the last spill, under a budget) and its per-level
// drop set. Under fingerprint keys (stride 0) every key is "" and the
// fingerprint is the entry: its index keeps 8-byte slots and no entry
// indices, except in a provenance run's visited set, whose claims are
// indexed by entry. Under exact keys the key — a ref tuple of stride
// words — alone decides equality and the fingerprint only says where to
// look: the table never hashes a key and copies each admitted one once,
// into an append-only arena, whose tuple indices its 12-byte slots hold.
// Either way an entry's index is its order of arrival, and claim returns
// it. The probe, growth and overflow rule is the slot index's
// (slotindex.go). It is not safe for concurrent use (the engine claims
// under its claim lock, or from the one worker a run or level has);
// find and has alone may run concurrently, with themselves.
//
// Aliasing invariant. The stored keys (key) — the keys entry lists and
// the provenance maps keep — are views of the arena (tupleKey), so they
// stay immutable only because arena words are never rewritten or reused:
// a chunk is written once per tuple and never cleared or recycled, and a
// drained or replaced table starts on new chunks. A chunk lives as long
// as any key into it (TestKeyTableMatchesMap).
type keyTable struct {
	idx   slotIndex
	arena tupleArena
}

// newKeyTable returns an empty table for exact keys of stride refs, or
// with stride 0 for fingerprint keys. An exact-key table names its
// entries by their arena indices; indexed gives a fingerprint-keyed one
// entry indices too (12-byte slots), numbering its entries in order of
// arrival as the arena does.
func newKeyTable(stride int, indexed bool) *keyTable {
	return &keyTable{idx: newSlotIndex(stride > 0 || indexed), arena: newTupleArena(stride)}
}

// len is the number of entries.
func (t *keyTable) len() int { return t.idx.len() }

// bytes is the table's resident footprint as accounted: its index and its
// arena's chunks.
func (t *keyTable) bytes() int64 { return t.idx.bytes() + 4*int64(t.arena.words) }

// find returns the arena index of (fp, key) if the table holds it, and
// otherwise the slot a new entry takes (slotIndex.miss).
func (t *keyTable) find(fp uint64, key string) (at uint32, ok bool, free int) {
	s, at, held := t.idx.probe(fp, false)
	if held && (t.arena.stride == 0 || t.arena.key(at) == key) {
		return at, true, s
	}
	return t.idx.miss(s, held, key)
}

// claim inserts (fp, key) and reports whether it was absent, and the
// entry's index, new or not (no index at all in a fingerprint table
// without indices); key(at) is the arena copy of key. key may be a view
// of scratch. Its probe takes an empty slot as it meets one: no key of
// that fingerprint is held, in the slots or in shared.
func (t *keyTable) claim(fp uint64, key string) (at uint32, added bool) {
	s, at, held := t.idx.probe(fp, true)
	if s >= 0 && !held {
		if t.idx.at != nil {
			at = uint32(t.idx.len() - 1)
			t.idx.at[s] = at
		}
		if t.arena.stride > 0 {
			t.arena.add(key)
		}
		if overLoad(t.idx.n, len(t.idx.fps)) {
			t.idx.grow()
		}
		return at, true
	}
	if held && (t.arena.stride == 0 || t.arena.key(at) == key) {
		return at, false
	}
	at, dup, free := t.idx.miss(s, held, key)
	if !dup {
		at = uint32(t.idx.len())
		if t.arena.stride > 0 {
			key, _ = t.arena.add(key)
		}
		t.idx.put(free, fp, key, at)
	}
	return at, !dup
}

// key is entry at's stored key: a view of the arena, "" under fingerprint
// keys.
func (t *keyTable) key(at uint32) string {
	if t.arena.stride == 0 {
		return ""
	}
	return t.arena.key(at)
}

// has reports whether the table holds (fp, key). It only reads, as find
// does, so calls may overlap one another (not a claim).
func (t *keyTable) has(fp uint64, key string) bool {
	_, ok, _ := t.find(fp, key)
	return ok
}

// reserve readies the table for a bulk load of up to n more entries and
// returns how many it is ready for: all n, or with a budget > 0 no more
// than the budget can take — what fills, to the growth bound of 70%, the
// largest table budget bytes hold with its tuples (at least one entry).
// The slots are sized so that the entries fit under the growth bound,
// rehashing at most once: a bulk load that reserves first never grows.
// That is what keeps a table-order stream (forEach) linear to load: such
// a stream is sorted by probe start, so fed to a table still doubling up
// from small it lands every entry at the end of one contiguous cluster —
// quadratic, 33.8 s for a million entries — whereas in a table already at
// its final size each entry probes exactly as far as it did in the table
// it was dumped from.
func (t *keyTable) reserve(n int, budget int64) int {
	if budget > 0 {
		slot, tuple := t.idx.slotBytes(), int64(4*t.arena.stride)
		fit := 1
		for slots := int64(keyTableSlots); slot*slots+tuple <= budget; slots <<= 1 {
			room := slots * 7 / 10
			if tuple > 0 {
				room = min(room, (budget-slot*slots)/tuple)
			}
			fit = max(fit, int(room))
		}
		n = min(n, fit)
	}
	t.idx.reserve(n)
	return n
}

// forEach calls fn on every entry in the index's order (slotIndex.forEach:
// load such a stream only into a reserved table).
func (t *keyTable) forEach(fn func(fp uint64, key string)) {
	t.idx.forEach(func(fp uint64, at uint32) { fn(fp, t.key(at)) })
}

// drainSorted empties the table and calls fn on what it held in entry
// order (entryCompare over d), stopping at fn's first error. Under
// fingerprint keys the slots are compacted and radix-sorted where they
// lie; only exact-key entries are gathered and compared as (fingerprint,
// key) pairs. The table starts over, empty and indexed as it was, on an
// arena that shares nothing with the drained one (indices restart at 0).
func (t *keyTable) drainSorted(d *model.Dict, fn func(fp uint64, key string) error) error {
	defer func(stride int, indexed bool) { *t = *newKeyTable(stride, indexed) }(t.arena.stride, t.idx.at != nil)
	if t.arena.stride == 0 {
		fps := t.idx.fps[:0]
		for _, fp := range t.idx.fps {
			if fp != 0 {
				fps = append(fps, fp)
			}
		}
		if len(t.idx.shared) > 0 {
			fps = append(fps, 0) // in place: the table is never full
		}
		sortFingerprints(fps)
		for _, fp := range fps {
			if err := fn(fp, ""); err != nil {
				return err
			}
		}
		return nil
	}
	entries := make([]entry, 0, t.len())
	t.forEach(func(fp uint64, key string) { entries = append(entries, entry{fp, key}) })
	slices.SortFunc(entries, func(a, b entry) int { return entryCompare(d, a, b) })
	for _, e := range entries {
		if err := fn(e.fp, e.key); err != nil {
			return err
		}
	}
	return nil
}

// tupleArena is append-only storage for ref tuples of stride words each,
// indexed by their order of arrival. Chunk k holds tupleFirst<<k tuples
// until a chunk reaches about tupleChunkBytes; every later chunk holds
// that many. A large first chunk would cost every small search the chunk;
// small late ones, an allocation per few tuples.
type tupleArena struct {
	stride  int
	capBits int    // log2 of the tuples a full-size chunk holds
	growing uint64 // tuples in the doubling chunks before the first full-size one
	chunks  [][]uint32
	n       int // tuples stored
	words   int // the chunks' words, stored or not
}

const (
	tupleFirstBits  = 6
	tupleFirst      = 1 << tupleFirstBits
	tupleChunkBytes = 1 << 20
)

func newTupleArena(stride int) tupleArena {
	cb := max(tupleFirstBits, bits.Len(uint(tupleChunkBytes/(4*max(stride, 1))))-1)
	return tupleArena{stride: stride, capBits: cb, growing: 1<<cb - tupleFirst}
}

// reset empties the arena and keeps its chunks, to be written again: only
// for an arena no key view outlives (the provenance parent keys, which
// claims hold by index and the barrier resets).
func (a *tupleArena) reset() { a.n = 0 }

// locate is the chunk and tuple offset within it of tuple at.
func (a *tupleArena) locate(at uint32) (int, int) {
	if x := uint64(at); x < a.growing {
		x += tupleFirst
		k := bits.Len64(x) - 1 - tupleFirstBits
		return k, int(x - tupleFirst<<k)
	}
	x := uint64(at) - a.growing
	return a.capBits - tupleFirstBits + int(x>>a.capBits), int(x & (1<<a.capBits - 1))
}

// add appends key's tuple and returns the key aliasing the copy and its
// index.
func (a *tupleArena) add(key string) (stored string, at uint32) {
	at = uint32(a.n)
	k, i := a.locate(at)
	if k == len(a.chunks) {
		size := 1 << a.capBits
		if k < a.capBits-tupleFirstBits {
			size = tupleFirst << k
		}
		a.chunks = append(a.chunks, make([]uint32, size*a.stride))
		a.words += size * a.stride
	}
	dst := a.chunks[k][i*a.stride : (i+1)*a.stride]
	copy(tupleBytes(dst), key)
	a.n++
	return tupleKey(dst), at
}

// key is tuple at's key, a view of the arena.
func (a *tupleArena) key(at uint32) string {
	k, i := a.locate(at)
	return tupleKey(a.chunks[k][i*a.stride : (i+1)*a.stride])
}

// radixMin is the length below which sortFingerprints leaves the work to
// slices.Sort: clearing and summing four 65,536-entry histograms costs
// more than comparison-sorting a slice this short.
const radixMin = 1 << 12

// sortFingerprints sorts a ascending. A long slice is LSD radix-sorted in
// four 16-bit passes through one scratch slice, skipping any pass whose
// digit every element shares; on 700k fingerprints that is several times
// faster than slices.Sort.
func sortFingerprints(a []uint64) {
	if len(a) < radixMin {
		slices.Sort(a)
		return
	}
	const digits, radix = 4, 1 << 16
	var counts [digits][]uint32
	for d := range counts {
		counts[d] = make([]uint32, radix)
	}
	for _, x := range a {
		for d := range counts {
			counts[d][uint16(x>>(16*d))]++
		}
	}
	src, dst := a, make([]uint64, len(a))
	for d, count := range counts {
		if count[uint16(a[0]>>(16*d))] == uint32(len(a)) {
			continue // one digit throughout: the pass would move nothing
		}
		sum := uint32(0)
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, x := range src {
			k := uint16(x >> (16 * d))
			dst[count[k]] = x
			count[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
