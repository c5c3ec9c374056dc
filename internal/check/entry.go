package check

import (
	"cmp"
	"encoding/binary"
	"io"
	"strings"
)

// This file is the one form of a visited entry, in memory and on disk.
// An entry is a fingerprint plus, under exact keys, the full encoding key.
// A keyedSet is a resident table of entries — the store's visited set
// (its delta since the last spill, under a budget) and its per-level drop
// set — and the only code that knows whether such a table is a fingerprint set or an
// exact-key map. An entry stream is the artifact payload both the spill
// store's sorted runs and a checkpoint's visited snapshot are written in:
//
//	fp (8B LE) | uvarint klen | key bytes      (klen 0 outside exact-key runs)

type entry struct {
	fp  uint64
	key string
}

// entryCompare is the engine's canonical order on visited entries, by
// (fingerprint, key): the order the budget cutoff keeps a prefix of and
// the spill store's runs are sorted in. Entries of one visited set never
// tie (that is what dedup means), so sorting by it is deterministic. Keys
// are empty, and the order the fingerprints', outside exact-key runs.
func entryCompare(a, b entry) int {
	if c := cmp.Compare(a.fp, b.fp); c != 0 {
		return c
	}
	return strings.Compare(a.key, b.key)
}

func entryLess(a, b entry) bool { return entryCompare(a, b) < 0 }

// mapEntryOverhead is the per-entry bookkeeping estimate (header, bucket
// slot, string header) added to key bytes in resident-memory accounting.
const mapEntryOverhead = 48

// keyedSet is a set of entries under one keying, fixed at creation. Like
// the fpSet it wraps it is not safe for concurrent use (the engine claims
// under its claim lock); has alone may run concurrently, with itself.
type keyedSet struct {
	fps *fpSet
	// keys maps exact key -> fingerprint (run entries, snapshots and the
	// truncation order need both); nil under fingerprint keying.
	keys     map[string]uint64
	keyBytes int64
}

func newKeyedSet(exact bool) keyedSet {
	if exact {
		return keyedSet{keys: map[string]uint64{}}
	}
	return keyedSet{fps: newFpSet(1024)}
}

// add inserts the entry and reports whether it was absent.
func (s *keyedSet) add(fp uint64, key string) bool {
	if s.keys == nil {
		return s.fps.Add(fp)
	}
	if _, dup := s.keys[key]; dup {
		return false
	}
	s.keys[key] = fp
	s.keyBytes += int64(len(key)) + mapEntryOverhead
	return true
}

// claim is add for a key still in scratch: it becomes a string, the one
// the set keeps and returns, only if the entry was absent.
func (s *keyedSet) claim(fp uint64, key []byte) (stored string, added bool) {
	if s.keys == nil {
		return "", s.fps.Add(fp)
	}
	if _, dup := s.keys[string(key)]; dup {
		return "", false
	}
	stored = string(key)
	s.keys[stored] = fp
	s.keyBytes += int64(len(stored)) + mapEntryOverhead
	return stored, true
}

func (s *keyedSet) has(fp uint64, key string) bool {
	if s.keys == nil {
		return s.fps.Has(fp)
	}
	_, ok := s.keys[key]
	return ok
}

// bytes is the table's resident footprint.
func (s *keyedSet) bytes() int64 {
	if s.keys == nil {
		return int64(len(s.fps.slots)) * 8
	}
	return s.keyBytes
}

// reserve readies the set for a bulk load of up to n more entries
// (fpSet.reserve says why a load must) and returns how many it is ready
// for: all n, or with a budget > 0 what fills, to the growth bound of 70%,
// the largest fingerprint table budget bytes hold. Exact keys vary in
// length, so a key map is bounded by watching bytes instead.
func (s *keyedSet) reserve(n int, budget int64) int {
	if s.keys != nil {
		return n
	}
	if budget > 0 {
		slots := 1024
		for int64(slots)*2*8 <= budget {
			slots <<= 1
		}
		n = min(n, slots*7/10)
	}
	s.fps.reserve(n)
	return n
}

// forEach calls fn on every member, in table order (load such a stream
// only into a reserved set), and stops at fn's first error.
func (s *keyedSet) forEach(fn func(fp uint64, key string) error) error {
	if s.keys == nil {
		return s.fps.forEach(func(fp uint64) error { return fn(fp, "") })
	}
	for k, fp := range s.keys {
		if err := fn(fp, k); err != nil {
			return err
		}
	}
	return nil
}

// drain empties the set and returns what it held.
func (s *keyedSet) drain() []entry {
	n := len(s.keys)
	if s.keys == nil {
		n = s.fps.Len()
	}
	out := make([]entry, 0, n)
	s.forEach(func(fp uint64, key string) error {
		out = append(out, entry{fp, key})
		return nil
	})
	*s = newKeyedSet(s.keys != nil)
	return out
}

// addEntry appends one entry to an entry-stream artifact.
func (w *blockWriter) addEntry(fp uint64, key string) error {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, fp)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(key)))
	w.buf = append(w.buf, key...)
	return w.flushFull()
}

// entryReader streams an entry-stream artifact back.
type entryReader struct {
	*artifactScanner
	key []byte
}

func openEntries(path string, kind byte) (*entryReader, error) {
	s, err := scanArtifact(path, kind)
	if err != nil {
		return nil, err
	}
	return &entryReader{artifactScanner: s}, nil
}

// next returns the next entry, or ok == false at the end of the stream
// (which is where the payload checksum is verified).
func (r *entryReader) next() (e entry, ok bool, err error) {
	b, err := r.Peek(8)
	if len(b) < 8 {
		if len(b) > 0 || err != io.EOF {
			return e, false, r.short(err)
		}
		return e, false, nil
	}
	e.fp = binary.LittleEndian.Uint64(b)
	r.Discard(8)
	if r.key, err = r.blob(r.key); err != nil {
		return e, false, r.short(err)
	}
	e.key = string(r.key)
	return e, true, nil
}

// each calls fn on every remaining entry and stops at the first error,
// fn's or the stream's.
func (r *entryReader) each(fn func(fp uint64, key string) error) error {
	for {
		e, ok, err := r.next()
		if err != nil || !ok {
			return err
		}
		if err := fn(e.fp, e.key); err != nil {
			return err
		}
	}
}
