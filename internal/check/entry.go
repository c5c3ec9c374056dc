package check

import (
	"cmp"
	"encoding/binary"
	"io"
	"slices"
	"strings"
)

// This file is the one form of a visited entry, in memory and on disk.
// An entry is a fingerprint plus, under exact keys, the full encoding key.
// A keyedSet is a resident table of entries — the store's visited set
// (its delta since the last spill, under a budget) and its per-level drop
// set — and the only code that knows whether such a table is a
// fingerprint set (fpSet) or an exact-key table (keyTable, keytable.go:
// probed by fingerprint, decided by key bytes, keys in an append-only
// arena). An entry stream is the artifact payload both the spill
// store's sorted runs and a checkpoint's visited deltas are written in:
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
// are empty, and the order the fingerprints', outside exact-key runs, so
// there the store sorts packed fingerprints as integers
// (sortFingerprints) and compares entries only under exact keys.
func entryCompare(a, b entry) int {
	if c := cmp.Compare(a.fp, b.fp); c != 0 {
		return c
	}
	return strings.Compare(a.key, b.key)
}

func entryLess(a, b entry) bool { return entryCompare(a, b) < 0 }

// entryList is a list of visited entries as parallel arrays — a spill
// store level's admissions, a checkpoint's visited delta: 8 bytes an
// entry under fingerprint keying, where keys stays nil. An exact key is a
// configuration's encoding, never empty, so under exact keys every entry
// has its key.
type entryList struct {
	fps  []uint64
	keys []string
}

func (l *entryList) add(fp uint64, key string) {
	l.fps = append(l.fps, fp)
	if key != "" {
		l.keys = append(l.keys, key)
	}
}

// key is the i-th entry's key ("" under fingerprint keying).
func (l *entryList) key(i int) string {
	if l.keys == nil {
		return ""
	}
	return l.keys[i]
}

// at is the i-th entry.
func (l *entryList) at(i int) entry { return entry{l.fps[i], l.key(i)} }

// mapEntryOverhead is the per-entry bookkeeping an exact-key entry is
// charged, on top of its key bytes, in resident-memory accounting
// (keyedSet.bytes: the spill trigger, peak_resident_bytes). It is an
// accounting constant, kept at what a Go map entry with its string header
// cost so that budgets cut where they always did, not the keyTable's
// cost: a slot is 16 bytes at 35-70% load plus a key's 1-2 length bytes.
const mapEntryOverhead = 48

// keyedSet is a set of entries under one keying, fixed at creation: a
// fingerprint table (fpSet) or an exact-key table (keyTable). Like those
// it is not safe for concurrent use (the engine claims under its claim
// lock); has alone may run concurrently, with itself.
type keyedSet struct {
	fps *fpSet
	// keys holds (fingerprint, key) entries (run entries, snapshots and
	// the truncation order need both); nil under fingerprint keying.
	keys     *keyTable
	keyBytes int64
}

func newKeyedSet(exact bool) keyedSet {
	if exact {
		return keyedSet{keys: newKeyTable()}
	}
	return keyedSet{fps: newFpSet(1024)}
}

// add inserts the entry and reports whether it was absent.
func (s *keyedSet) add(fp uint64, key string) bool {
	if s.keys == nil {
		return s.fps.Add(fp)
	}
	_, added := s.claim(fp, keyView(key))
	return added
}

// claim is add for a key still in scratch: the set copies it only if the
// entry was absent, and stored, the copy it keeps, is the string the
// admitted node shares (it aliases the table's arena; see keyTable).
func (s *keyedSet) claim(fp uint64, key []byte) (stored string, added bool) {
	if s.keys == nil {
		return "", s.fps.Add(fp)
	}
	if stored, added = s.keys.claim(fp, key); added {
		s.keyBytes += int64(len(key)) + mapEntryOverhead
	}
	return stored, added
}

func (s *keyedSet) has(fp uint64, key string) bool {
	if s.keys == nil {
		return s.fps.Has(fp)
	}
	return s.keys.has(fp, key)
}

// bytes is the table's resident footprint as accounted: 8 bytes a slot
// under fingerprint keys, key bytes plus mapEntryOverhead an entry under
// exact keys.
func (s *keyedSet) bytes() int64 {
	if s.keys == nil {
		return int64(len(s.fps.slots)) * 8
	}
	return s.keyBytes
}

// reserve readies the set for a bulk load of up to n more entries
// (fpSet.reserve says why a load must) and returns how many it is ready
// for: all n, or with a budget > 0 no more than the budget can take. For
// a fingerprint table that is what fills, to the growth bound of 70%, the
// largest table budget bytes hold. An exact entry is charged at least
// mapEntryOverhead+1 bytes, so bytes passes the budget by the
// budget/mapEntryOverhead+1-th: the slots are sized for no more, and the
// caller's watch on bytes stops the load first.
func (s *keyedSet) reserve(n int, budget int64) int {
	if s.keys != nil {
		if budget > 0 {
			n = min(n, int(budget/mapEntryOverhead)+1)
		}
		s.keys.reserve(n)
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
	return s.keys.forEach(fn)
}

// len is the number of entries in the set.
func (s *keyedSet) len() int {
	if s.keys == nil {
		return s.fps.Len()
	}
	return s.keys.len()
}

// drainSorted empties the set and calls fn on what it held in entry order
// (entryCompare), stopping at fn's first error. A fingerprint table is
// sorted where it lies (fpSet.drainSorted); only exact-key entries are
// gathered and compared as (fingerprint, key) pairs. The set starts over
// on a new table, whose arena shares nothing with the drained one.
func (s *keyedSet) drainSorted(fn func(fp uint64, key string) error) error {
	exact := s.keys != nil
	defer func() { *s = newKeyedSet(exact) }()
	if !exact {
		for _, fp := range s.fps.drainSorted() {
			if err := fn(fp, ""); err != nil {
				return err
			}
		}
		return nil
	}
	entries := s.keys.entries()
	slices.SortFunc(entries, entryCompare)
	for _, e := range entries {
		if err := fn(e.fp, e.key); err != nil {
			return err
		}
	}
	return nil
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
