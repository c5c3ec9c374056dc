package check

import (
	"cmp"
	"encoding/binary"
	"io"

	"repro/internal/model"
)

// This file is the one form of a visited entry, in memory and on disk.
// An entry is a fingerprint plus, under exact keys, the configuration's
// exact key: its ref tuple. A keyTable (keytable.go) is a resident table
// of entries under either keying — probed by fingerprint, decided under
// exact keys by tuple, tuples in an append-only arena. An entry stream is
// the artifact payload the spill store's sorted runs and a checkpoint's
// visited deltas are written in:
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
