package check

import (
	"bytes"
	"encoding/binary"
	"unsafe"
)

// keyTable is the exact-key visited table: a set of (fingerprint, key)
// entries in which the key bytes alone decide equality and the
// fingerprint only says where to look. It never hashes a key and copies
// each admitted key once, into an append-only arena.
//
//   - slots is an open-addressing (linear-probing) table probed from the
//     fingerprint, as fpSet is. A slot is pointer-free — the fingerprint
//     and where its key lies in the arena — so the collector never scans
//     the table, and growth rehashes fingerprints, not keys.
//   - The first key a fingerprint is claimed with takes its slot. A
//     different key with the same fingerprint goes to shared, an exact
//     map, so a colliding pair is two entries, never one; under the
//     degenerate slot hash every key but the first takes that path.
//     A key has one fingerprint (the hash of the configuration it
//     encodes), so shared is keyed by the key alone.
//
// Aliasing invariant. The strings claim returns — the keys nodes and
// entry lists keep — alias the arena (unsafe.String), so they stay
// immutable only because arena bytes are never rewritten or reused: a
// chunk is appended to within its capacity and never truncated, cleared
// or recycled, and a drained or replaced table starts on new chunks. A
// chunk lives as long as any string into it (TestKeyTableMatchesMap).
type keyTable struct {
	slots []keySlot
	mask  uint64
	shift uint // 64 - log2(len(slots)), for probeStart
	n     int  // entries in slots
	grows int  // doublings under load (a reserve is not one)
	// shared maps each key whose fingerprint a different key holds in
	// slots to its fingerprint; nil until the first.
	shared map[string]uint64
	arena  keyArena
}

// keySlot is one table slot: a fingerprint and the arena location of its
// key, chunk index plus one (0: the slot is empty) and offset.
type keySlot struct {
	fp    uint64
	chunk uint32
	off   uint32
}

// keyTableSlots is a new table's size: small, since many searches are
// (a Lemma 13 bivalence test), and growth rehashes 16-byte slots, never
// keys.
const keyTableSlots = 64

func newKeyTable() *keyTable {
	t := &keyTable{}
	t.setSlots(make([]keySlot, keyTableSlots))
	return t
}

func (t *keyTable) setSlots(slots []keySlot) {
	t.slots = slots
	t.mask = uint64(len(slots) - 1)
	t.shift = 64
	for size := len(slots); size > 1; size >>= 1 {
		t.shift--
	}
}

func (t *keyTable) probeStart(fp uint64) uint64 {
	return (fp * 0x9E3779B97F4A7C15) >> t.shift
}

// len is the number of entries.
func (t *keyTable) len() int { return t.n + len(t.shared) }

// claim inserts (fp, key) and reports whether it was absent; stored is
// the arena copy of key, "" for a duplicate. key may be scratch.
func (t *keyTable) claim(fp uint64, key []byte) (stored string, added bool) {
	for i := t.probeStart(fp); ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		if sl.chunk == 0 {
			sl.fp = fp
			stored, sl.chunk, sl.off = t.arena.add(key)
			t.n++
			// Grow at 70% load so probe chains stay short.
			if uint64(t.n)*10 > uint64(len(t.slots))*7 {
				t.resize(len(t.slots) * 2)
				t.grows++
			}
			return stored, true
		}
		if sl.fp != fp {
			continue
		}
		if bytes.Equal(t.arena.at(sl.chunk, sl.off), key) {
			return "", false
		}
		if _, dup := t.shared[string(key)]; dup {
			return "", false
		}
		if t.shared == nil {
			t.shared = map[string]uint64{}
		}
		stored, _, _ = t.arena.add(key)
		t.shared[stored] = fp
		return stored, true
	}
}

// has reports membership. It only reads, so calls may overlap one
// another (not a claim).
func (t *keyTable) has(fp uint64, key string) bool {
	for i := t.probeStart(fp); ; i = (i + 1) & t.mask {
		sl := &t.slots[i]
		switch {
		case sl.chunk == 0:
			return false
		case sl.fp != fp:
			continue
		case string(t.arena.at(sl.chunk, sl.off)) == key:
			return true
		}
		_, ok := t.shared[key]
		return ok
	}
}

// reserve sizes the slots so that n more entries fit under the growth
// bound, rehashing at most once (fpSet.reserve says why a bulk load
// must).
func (t *keyTable) reserve(n int) {
	size := len(t.slots)
	for uint64(t.n+n)*10 > uint64(size)*7 {
		size <<= 1
	}
	if size > len(t.slots) {
		t.resize(size)
	}
}

// resize rehashes the slots into a table of size slots, by fingerprint.
func (t *keyTable) resize(size int) {
	old := t.slots
	t.setSlots(make([]keySlot, size))
	for _, sl := range old {
		if sl.chunk == 0 {
			continue
		}
		for i := t.probeStart(sl.fp); ; i = (i + 1) & t.mask {
			if t.slots[i].chunk == 0 {
				t.slots[i] = sl
				break
			}
		}
	}
}

// forEach calls fn on every entry — the slots in table order, then the
// shared keys — and stops at fn's first error.
func (t *keyTable) forEach(fn func(fp uint64, key string) error) error {
	for _, sl := range t.slots {
		if sl.chunk != 0 {
			if err := fn(sl.fp, t.arena.str(sl.chunk, sl.off)); err != nil {
				return err
			}
		}
	}
	for k, fp := range t.shared {
		if err := fn(fp, k); err != nil {
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

// keyView views key as bytes, for a claim, which only reads them.
func keyView(key string) []byte { return unsafe.Slice(unsafe.StringData(key), len(key)) }

// keyArena is append-only storage for exact keys: chunks that start at
// keyChunkMin bytes and double up to keyChunkMax (a key longer than the
// next chunk gets a chunk of its own size), each key stored as uvarint
// length | bytes. A large first chunk would cost every small search the
// chunk; a small last one, an allocation per few keys.
type keyArena struct {
	chunks [][]byte
}

const (
	keyChunkMin = 512
	keyChunkMax = 1 << 20
)

// add appends key and returns the string aliasing the copy and its
// location.
func (a *keyArena) add(key []byte) (stored string, chunk, off uint32) {
	need := binary.MaxVarintLen64 + len(key)
	last := len(a.chunks) - 1
	if last < 0 || cap(a.chunks[last])-len(a.chunks[last]) < need {
		size := keyChunkMin
		if last >= 0 {
			size = min(2*cap(a.chunks[last]), keyChunkMax)
		}
		a.chunks = append(a.chunks, make([]byte, 0, max(size, need)))
		last++
	}
	c := a.chunks[last]
	off = uint32(len(c))
	c = binary.AppendUvarint(c, uint64(len(key)))
	start := len(c)
	c = append(c, key...) // within capacity: the chunk never moves
	a.chunks[last] = c
	chunk = uint32(last + 1)
	if len(key) > 0 {
		stored = unsafe.String(&c[start], len(key))
	}
	return stored, chunk, off
}

// at returns the bytes of the key at (chunk, off); they must not be
// written.
func (a *keyArena) at(chunk, off uint32) []byte {
	c := a.chunks[chunk-1][off:]
	n, w := binary.Uvarint(c)
	return c[w : w+int(n) : w+int(n)]
}

// str returns the key at (chunk, off) as a string aliasing the arena.
func (a *keyArena) str(chunk, off uint32) string {
	b := a.at(chunk, off)
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
