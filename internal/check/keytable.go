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
// fingerprint is the entry. Under exact keys the key — a ref tuple of
// stride words — alone decides equality and the fingerprint only says
// where to look: the table never hashes a key and copies each admitted
// one once, into an append-only arena. It is not safe for concurrent use
// (the engine claims under its claim lock, or from the one worker a run
// or level has); lookup and has alone may run concurrently, with
// themselves.
//
//   - The slots are parallel arrays probed from the fingerprint (linear
//     probing): fps, 0 marking an empty slot, and under exact keys
//     tuples, the arena index of the slot's tuple. A slot is 8 bytes
//     under fingerprint keys and 12 under exact keys, pointer-free, so
//     the collector never scans the table, and growth rehashes
//     fingerprints, not tuples. The fingerprints one table holds can
//     share bits (a distributed peer owns a range of the top six), so
//     probe starts are not cut from the fingerprint as it is: probeStart
//     remixes multiplicatively and takes the high bits of the product
//     (Fibonacci hashing).
//   - The first key a fingerprint is claimed with takes its slot. A
//     different key with the same fingerprint goes to shared, an exact
//     map, so a colliding pair is two entries, never one; under the
//     degenerate slot hash every key but the first takes that path.
//     A key has one fingerprint (the hash of its configuration), so
//     shared is keyed by the key alone. The zero fingerprint, which
//     cannot take a slot, goes there too (under fingerprint keys as the
//     one entry of key "").
//
// Aliasing invariant. The keys claim returns — the keys entry lists and
// the provenance maps keep — are views of the arena (tupleKey), so they
// stay immutable only because arena words are never rewritten or reused:
// a chunk is written once per tuple and never cleared or recycled, and a
// drained or replaced table starts on new chunks. A chunk lives as long
// as any key into it (TestKeyTableMatchesMap).
type keyTable struct {
	fps    []uint64
	tuples []uint32 // nil under fingerprint keys
	mask   uint64
	shift  uint // 64 - log2(len(fps)), for probeStart
	n      int  // entries in the slots
	grows  int  // doublings under load (a reserve is not one)
	// shared maps each key the slots cannot hold to its fingerprint and
	// tuple; nil until the first.
	shared map[string]sharedKey
	arena  tupleArena
}

type sharedKey struct {
	fp uint64
	at uint32
}

// A new table's size. Under exact keys it is small, since many searches
// are (a Lemma 13 bivalence test), and growth rehashes 12-byte slots,
// never tuples. Under fingerprint keys it is 16 KB, the floor
// SeedVisited puts under a spill budget.
const (
	fpTableSlots  = 2048
	keyTableSlots = 64
)

// sharedEntryBytes is what resident accounting charges a shared entry on
// top of its tuple: a Go map slot with its string header and value.
const sharedEntryBytes = 48

// newKeyTable returns an empty table for exact keys of stride refs, or
// with stride 0 for fingerprint keys.
func newKeyTable(stride int) *keyTable {
	t := &keyTable{arena: newTupleArena(stride)}
	t.setSlots(t.startSlots())
	return t
}

func (t *keyTable) startSlots() int {
	if t.arena.stride == 0 {
		return fpTableSlots
	}
	return keyTableSlots
}

// slotBytes is what a slot costs: its fingerprint, and its tuple index
// under exact keys.
func (t *keyTable) slotBytes() int64 {
	if t.arena.stride == 0 {
		return 8
	}
	return 12
}

func (t *keyTable) setSlots(size int) {
	t.fps = make([]uint64, size)
	if t.arena.stride > 0 {
		t.tuples = make([]uint32, size)
	}
	t.mask = uint64(size - 1)
	t.shift = uint(64 - bits.Len(uint(size)) + 1)
}

func (t *keyTable) probeStart(fp uint64) uint64 {
	return (fp * 0x9E3779B97F4A7C15) >> t.shift
}

// len is the number of entries.
func (t *keyTable) len() int { return t.n + len(t.shared) }

// bytes is the table's resident footprint as accounted: its slots, its
// arena's chunks and its shared entries.
func (t *keyTable) bytes() int64 {
	return int64(len(t.fps))*t.slotBytes() + 4*int64(t.arena.words) + int64(len(t.shared))*sharedEntryBytes
}

// claim inserts (fp, key) and reports whether it was absent; stored is
// the arena copy of key, "" for a duplicate and under fingerprint keys.
// key may be a view of scratch.
func (t *keyTable) claim(fp uint64, key string) (stored string, added bool) {
	if fp == 0 {
		return t.claimShared(fp, key)
	}
	for i := t.probeStart(fp); ; i = (i + 1) & t.mask {
		switch t.fps[i] {
		case 0:
			t.fps[i] = fp
			if t.tuples != nil {
				stored, t.tuples[i] = t.arena.add(key)
			}
			t.n++
			// Grow at 70% load so probe chains stay short.
			if uint64(t.n)*10 > uint64(len(t.fps))*7 {
				t.resize(len(t.fps) * 2)
				t.grows++
			}
			return stored, true
		case fp:
			if t.tuples == nil || t.arena.key(t.tuples[i]) == key {
				return "", false
			}
			return t.claimShared(fp, key)
		}
	}
}

// claimShared is claim for an entry the slots cannot hold.
func (t *keyTable) claimShared(fp uint64, key string) (stored string, added bool) {
	if _, dup := t.shared[key]; dup {
		return "", false
	}
	if t.shared == nil {
		t.shared = map[string]sharedKey{}
	}
	var at uint32
	if t.tuples != nil {
		stored, at = t.arena.add(key)
	}
	t.shared[stored] = sharedKey{fp, at}
	return stored, true
}

// lookup returns the stored copy of (fp, key), if the table has it ("",
// under fingerprint keys). It only reads, so calls may overlap one
// another (not a claim).
func (t *keyTable) lookup(fp uint64, key string) (string, bool) {
	for i := t.probeStart(fp); fp != 0; i = (i + 1) & t.mask {
		if t.fps[i] == 0 {
			return "", false
		}
		if t.fps[i] != fp {
			continue
		}
		if t.tuples == nil {
			return "", true
		}
		if stored := t.arena.key(t.tuples[i]); stored == key {
			return stored, true
		}
		break
	}
	sh, ok := t.shared[key]
	if !ok || t.tuples == nil {
		return "", ok
	}
	return t.arena.key(sh.at), true
}

func (t *keyTable) has(fp uint64, key string) bool {
	_, ok := t.lookup(fp, key)
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
		slot, tuple := t.slotBytes(), int64(4*t.arena.stride)
		fit := 1
		for slots := int64(t.startSlots()); slot*slots+tuple <= budget; slots <<= 1 {
			room := slots * 7 / 10
			if tuple > 0 {
				room = min(room, (budget-slot*slots)/tuple)
			}
			fit = max(fit, int(room))
		}
		n = min(n, fit)
	}
	size := len(t.fps)
	for uint64(t.n+n)*10 > uint64(size)*7 {
		size <<= 1
	}
	if size > len(t.fps) {
		t.resize(size)
	}
	return n
}

// resize rehashes the slots into a table of size slots, by fingerprint.
func (t *keyTable) resize(size int) {
	fps, tuples := t.fps, t.tuples
	t.setSlots(size)
	for j, fp := range fps {
		if fp == 0 {
			continue
		}
		for i := t.probeStart(fp); ; i = (i + 1) & t.mask {
			if t.fps[i] == 0 {
				t.fps[i] = fp
				if tuples != nil {
					t.tuples[i] = tuples[j]
				}
				break
			}
		}
	}
}

// forEach calls fn on every entry — the slots in table order (sorted by
// probe start: load such a stream only into a reserved table), then the
// shared keys — and stops at fn's first error.
func (t *keyTable) forEach(fn func(fp uint64, key string) error) error {
	for i, fp := range t.fps {
		if fp == 0 {
			continue
		}
		key := ""
		if t.tuples != nil {
			key = t.arena.key(t.tuples[i])
		}
		if err := fn(fp, key); err != nil {
			return err
		}
	}
	for k, sh := range t.shared {
		if err := fn(sh.fp, k); err != nil {
			return err
		}
	}
	return nil
}

// drainSorted empties the table and calls fn on what it held in entry
// order (entryCompare over d), stopping at fn's first error. Under
// fingerprint keys the slots are compacted and radix-sorted where they
// lie; only exact-key entries are gathered and compared as (fingerprint,
// key) pairs. The table starts over, empty, on an arena that shares
// nothing with the drained one.
func (t *keyTable) drainSorted(d *model.Dict, fn func(fp uint64, key string) error) error {
	defer func(stride int) { *t = *newKeyTable(stride) }(t.arena.stride)
	if t.tuples == nil {
		fps := t.fps[:0]
		for _, fp := range t.fps {
			if fp != 0 {
				fps = append(fps, fp)
			}
		}
		if len(t.shared) > 0 {
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
	t.forEach(func(fp uint64, key string) error {
		entries = append(entries, entry{fp, key})
		return nil
	})
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
