package check

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
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

// keyTable is the exact-key visited table: a set of (fingerprint, key)
// entries in which the key — a ref tuple of stride words — alone decides
// equality and the fingerprint only says where to look. It never hashes a
// key and copies each admitted one once, into an append-only arena.
//
//   - The slots are two parallel arrays probed from the fingerprint
//     (linear probing, as fpSet): fps, and tuples, the arena index of the
//     slot's tuple plus one (0: the slot is empty). A slot is 12 bytes and
//     pointer-free, so the collector never scans the table, and growth
//     rehashes fingerprints, not tuples.
//   - The first key a fingerprint is claimed with takes its slot. A
//     different key with the same fingerprint goes to shared, an exact
//     map, so a colliding pair is two entries, never one; under the
//     degenerate slot hash every key but the first takes that path.
//     A key has one fingerprint (the hash of its configuration), so
//     shared is keyed by the key alone.
//
// Aliasing invariant. The keys claim returns — the keys entry lists and
// the provenance tables keep — are views of the arena (tupleKey), so they
// stay immutable only because arena words are never rewritten or reused:
// a chunk is written once per tuple and never cleared or recycled, and a
// drained or replaced table starts on new chunks. A chunk lives as long
// as any key into it (TestKeyTableMatchesMap).
type keyTable struct {
	fps    []uint64
	tuples []uint32
	mask   uint64
	shift  uint // 64 - log2(len(fps)), for probeStart
	n      int  // entries in the slots
	grows  int  // doublings under load (a reserve is not one)
	// shared maps each key whose fingerprint a different key holds in
	// the slots to its fingerprint and tuple; nil until the first.
	shared map[string]sharedKey
	arena  tupleArena
}

type sharedKey struct {
	fp uint64
	at uint32
}

// keyTableSlots is a new table's size: small, since many searches are
// (a Lemma 13 bivalence test), and growth rehashes 12-byte slots, never
// tuples.
const keyTableSlots = 64

// sharedEntryBytes is what resident accounting charges a shared entry on
// top of its tuple: a Go map slot with its string header and value.
const sharedEntryBytes = 48

func newKeyTable(stride int) *keyTable {
	t := &keyTable{arena: newTupleArena(stride)}
	t.setSlots(keyTableSlots)
	return t
}

func (t *keyTable) setSlots(size int) {
	t.fps, t.tuples = make([]uint64, size), make([]uint32, size)
	t.mask = uint64(size - 1)
	t.shift = uint(64 - bits.Len(uint(size)) + 1)
}

func (t *keyTable) probeStart(fp uint64) uint64 {
	return (fp * 0x9E3779B97F4A7C15) >> t.shift
}

// len is the number of entries.
func (t *keyTable) len() int { return t.n + len(t.shared) }

// bytes is the table's resident footprint: its slots, its arena's chunks
// and its shared entries.
func (t *keyTable) bytes() int64 {
	return int64(len(t.fps))*12 + 4*int64(t.arena.words) + int64(len(t.shared))*sharedEntryBytes
}

// claim inserts (fp, key) and reports whether it was absent; stored is
// the arena copy of key, "" for a duplicate. key may be a view of
// scratch.
func (t *keyTable) claim(fp uint64, key string) (stored string, added bool) {
	for i := t.probeStart(fp); ; i = (i + 1) & t.mask {
		if t.tuples[i] == 0 {
			var at uint32
			stored, at = t.arena.add(key)
			t.fps[i], t.tuples[i] = fp, at+1
			t.n++
			// Grow at 70% load so probe chains stay short.
			if uint64(t.n)*10 > uint64(len(t.fps))*7 {
				t.resize(len(t.fps) * 2)
				t.grows++
			}
			return stored, true
		}
		if t.fps[i] != fp {
			continue
		}
		if t.arena.key(t.tuples[i]-1) == key {
			return "", false
		}
		if _, dup := t.shared[key]; dup {
			return "", false
		}
		if t.shared == nil {
			t.shared = map[string]sharedKey{}
		}
		var at uint32
		stored, at = t.arena.add(key)
		t.shared[stored] = sharedKey{fp, at}
		return stored, true
	}
}

// lookup returns the stored copy of (fp, key), if the table has it. It
// only reads, so calls may overlap one another (not a claim).
func (t *keyTable) lookup(fp uint64, key string) (string, bool) {
	for i := t.probeStart(fp); ; i = (i + 1) & t.mask {
		switch {
		case t.tuples[i] == 0:
			return "", false
		case t.fps[i] != fp:
			continue
		}
		if stored := t.arena.key(t.tuples[i] - 1); stored == key {
			return stored, true
		}
		if sh, ok := t.shared[key]; ok {
			return t.arena.key(sh.at), true
		}
		return "", false
	}
}

// reserve sizes the slots so that n more entries fit under the growth
// bound, rehashing at most once (fpSet.reserve says why a bulk load
// must).
func (t *keyTable) reserve(n int) {
	size := len(t.fps)
	for uint64(t.n+n)*10 > uint64(size)*7 {
		size <<= 1
	}
	if size > len(t.fps) {
		t.resize(size)
	}
}

// resize rehashes the slots into a table of size slots, by fingerprint.
func (t *keyTable) resize(size int) {
	fps, tuples := t.fps, t.tuples
	t.setSlots(size)
	for j, at := range tuples {
		if at == 0 {
			continue
		}
		for i := t.probeStart(fps[j]); ; i = (i + 1) & t.mask {
			if t.tuples[i] == 0 {
				t.fps[i], t.tuples[i] = fps[j], at
				break
			}
		}
	}
}

// forEach calls fn on every entry — the slots in table order, then the
// shared keys — and stops at fn's first error.
func (t *keyTable) forEach(fn func(fp uint64, key string) error) error {
	for i, at := range t.tuples {
		if at != 0 {
			if err := fn(t.fps[i], t.arena.key(at-1)); err != nil {
				return err
			}
		}
	}
	for k, sh := range t.shared {
		if err := fn(sh.fp, k); err != nil {
			return err
		}
	}
	return nil
}

// entries returns every entry, in no order; the keys alias the arena.
func (t *keyTable) entries() []entry {
	out := make([]entry, 0, t.len())
	t.forEach(func(fp uint64, key string) error {
		out = append(out, entry{fp, key})
		return nil
	})
	return out
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
