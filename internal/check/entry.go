package check

import (
	"cmp"
	"encoding/binary"
	"io"
	"slices"

	"repro/internal/model"
)

// This file is the one form of a visited entry, in memory and on disk.
// An entry is a fingerprint plus, under exact keys, the configuration's
// exact key: its ref tuple (keytable.go). A keyedSet is a resident table
// of entries — the store's visited set (its delta since the last spill,
// under a budget) and its per-level drop set — and the only code that
// knows whether such a table is a fingerprint set (fpSet) or an exact-key
// table (keyTable: probed by fingerprint, decided by tuple, tuples in an
// append-only arena). An entry stream is the artifact payload the spill
// store's sorted runs and a checkpoint's visited deltas are written in:
//
//	fp (8B LE) | uvarint klen | key bytes      (klen 0 outside exact-key runs)
//
// A sorted run's key is the ref tuple, readable only by the run that wrote
// it; a checkpoint's is the configuration's encoding (checkpoint.go).

type entry struct {
	fp  uint64
	key string
}

// entryCompare is the engine's canonical order on visited entries, by
// fingerprint and then, under exact keys, by the encodings of the
// configurations the keys stand for, read from the run's dictionary d:
// the order the budget cutoff keeps a prefix of and the spill store's
// runs are sorted in. It never rests on a ref's value, which is timing.
// Entries of one visited set never tie (that is what dedup means), so
// sorting by it is deterministic. Keys are empty, and the order the
// fingerprints', outside exact-key runs, so there the store sorts packed
// fingerprints as integers (sortFingerprints) and compares entries only
// under exact keys, where d may not be nil.
func entryCompare(d *model.Dict, a, b entry) int {
	if c := cmp.Compare(a.fp, b.fp); c != 0 {
		return c
	}
	return compareKeys(d, a.key, b.key)
}

func entryLess(d *model.Dict, a, b entry) bool { return entryCompare(d, a, b) < 0 }

// compareKeys orders two exact keys of one run as their configurations'
// encodings are ordered: by the first slot whose refs differ
// (model.Dict.CompareSlot says why that slot decides).
func compareKeys(d *model.Dict, a, b string) int {
	for i := range len(a) / 4 {
		if ra, rb := keyRef(a, i), keyRef(b, i); ra != rb {
			return d.CompareSlot(i, ra, rb)
		}
	}
	return 0
}

// entryList is a list of visited entries as parallel arrays — a spill
// store level's admissions, a checkpoint's visited delta: 8 bytes an
// entry under fingerprint keying, where keys stays nil. An exact key is
// never empty, so under exact keys every entry has its key.
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

// keyedSet is a set of entries under one keying, fixed at creation: a
// fingerprint table (fpSet) or an exact-key table (keyTable). Like those
// it is not safe for concurrent use (the engine claims under its claim
// lock); has and lookup alone may run concurrently, with themselves.
type keyedSet struct {
	fps *fpSet
	// keys holds (fingerprint, key) entries (run entries, snapshots and
	// the truncation order need both); nil under fingerprint keying.
	keys *keyTable
}

// newKeyedSet returns an empty set: an exact-key table for keys of
// stride refs, or with stride 0 a fingerprint table.
func newKeyedSet(stride int) keyedSet {
	if stride > 0 {
		return keyedSet{keys: newKeyTable(stride)}
	}
	return keyedSet{fps: newFpSet(1024)}
}

// add inserts the entry and reports whether it was absent.
func (s *keyedSet) add(fp uint64, key string) bool {
	_, added := s.claim(fp, key)
	return added
}

// claim is add for a key that may still be a view of scratch: the set
// copies it only if the entry was absent, and stored is the copy it keeps
// (a view of the table's arena; see keyTable), "" under fingerprint keys.
func (s *keyedSet) claim(fp uint64, key string) (stored string, added bool) {
	if s.keys == nil {
		return "", s.fps.Add(fp)
	}
	return s.keys.claim(fp, key)
}

func (s *keyedSet) has(fp uint64, key string) bool {
	if s.keys == nil {
		return s.fps.Has(fp)
	}
	_, ok := s.keys.lookup(fp, key)
	return ok
}

// bytes is the table's resident footprint as accounted: 8 bytes a slot
// under fingerprint keys; under exact keys 12 bytes a slot, the tuples,
// and the shared-fingerprint entries.
func (s *keyedSet) bytes() int64 {
	if s.keys == nil {
		return int64(len(s.fps.slots)) * 8
	}
	return s.keys.bytes()
}

// reserve readies the set for a bulk load of up to n more entries
// (fpSet.reserve says why a load must) and returns how many it is ready
// for: all n, or with a budget > 0 no more than the budget can take — for
// either table, what fills, to the growth bound of 70%, the largest table
// budget bytes hold (at least one entry).
func (s *keyedSet) reserve(n int, budget int64) int {
	if s.keys != nil {
		if budget > 0 {
			tuple := int64(4 * s.keys.arena.stride)
			fit := 1
			for slots := int64(keyTableSlots); 12*slots+tuple <= budget; slots <<= 1 {
				fit = max(fit, int(min(slots*7/10, (budget-12*slots)/tuple)))
			}
			n = min(n, fit)
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
// (entryCompare over d), stopping at fn's first error. A fingerprint table
// is sorted where it lies (fpSet.drainSorted); only exact-key entries are
// gathered and compared as (fingerprint, key) pairs. The set starts over
// on a new table, whose arena shares nothing with the drained one.
func (s *keyedSet) drainSorted(d *model.Dict, fn func(fp uint64, key string) error) error {
	if s.keys == nil {
		defer func() { *s = newKeyedSet(0) }()
		for _, fp := range s.fps.drainSorted() {
			if err := fn(fp, ""); err != nil {
				return err
			}
		}
		return nil
	}
	defer func(stride int) { *s = newKeyedSet(stride) }(s.keys.arena.stride)
	entries := s.keys.entries()
	slices.SortFunc(entries, func(a, b entry) int { return entryCompare(d, a, b) })
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
