package check

// Checksummed, atomically-published artifact framing shared by every
// durable file the checker writes: spill runs, frontier segments, and
// checkpoint snapshots. Each artifact is
//
//	header (8B):  "RAF1" | version (1B) | kind (1B) | pad (2B)
//	payload:      kind-specific bytes
//	trailer (8B): CRC32-IEEE of payload (4B LE) | "END." (4B)
//
// written to <path>.tmp and renamed into place only after the trailer
// is flushed, so a reader never observes a half-written artifact under
// its final name. Readers validate the framing at open and verify the
// payload CRC as they stream; corrupt artifacts are moved to a
// `quarantine/` sibling directory and surfaced as *CorruptArtifactError
// so callers can distinguish media corruption from I/O failure.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/fault"
)

// Artifact kinds (byte 5 of the header).
const (
	artifactRun      byte = 1 // sorted dedup run
	artifactSegment  byte = 2 // spooled frontier segment
	artifactVisited  byte = 3 // checkpoint visited-set snapshot
	artifactFrontier byte = 4 // checkpoint frontier snapshot
	artifactAux      byte = 5 // checkpoint search-layer accumulators
)

const (
	artifactVersion    = 1
	artifactHeaderLen  = 8
	artifactTrailerLen = 8
	artifactOverhead   = artifactHeaderLen + artifactTrailerLen
)

var (
	artifactMagic    = [4]byte{'R', 'A', 'F', '1'}
	artifactEndMagic = [4]byte{'E', 'N', 'D', '.'}
)

// CorruptArtifactError reports an artifact whose on-disk bytes failed
// framing or checksum verification. The file has been moved to the
// quarantine/ directory next to where it lived.
type CorruptArtifactError struct {
	Path   string
	Reason string
}

func (e *CorruptArtifactError) Error() string {
	return fmt.Sprintf("corrupt artifact %s: %s (quarantined)", e.Path, e.Reason)
}

// quarantine moves the artifact into a quarantine/ sibling directory
// (plain os calls: recovery must not be subject to fault injection) and
// returns the typed error describing it.
func quarantine(path, reason string) *CorruptArtifactError {
	qdir := filepath.Join(filepath.Dir(path), "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		os.Rename(path, filepath.Join(qdir, filepath.Base(path)))
	}
	return &CorruptArtifactError{Path: path, Reason: reason}
}

// artifactWriter streams one artifact to <path>.tmp, accumulating the
// payload CRC; finish seals the trailer and renames the file into
// place. Either finish or abort must be called exactly once.
type artifactWriter struct {
	path string
	f    *fault.File
	bw   *bufio.Writer
	crc  hash.Hash32
	n    int64 // payload bytes
	sync bool  // fsync before rename (checkpoint commits)
	done bool
}

func newArtifactWriter(path string, kind byte) (*artifactWriter, error) {
	f, err := fault.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	w := &artifactWriter{path: path, f: f, bw: bufio.NewWriterSize(f, 1<<18), crc: crc32.NewIEEE()}
	var hdr [artifactHeaderLen]byte
	copy(hdr[:4], artifactMagic[:])
	hdr[4] = artifactVersion
	hdr[5] = kind
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.abort()
		return nil, err
	}
	return w, nil
}

// Write implements io.Writer over the payload.
func (w *artifactWriter) Write(p []byte) (int, error) {
	n, err := w.bw.Write(p)
	if n > 0 {
		w.crc.Write(p[:n])
		w.n += int64(n)
	}
	return n, err
}

// finish seals the trailer, optionally fsyncs, and atomically renames
// the tmp file to its final path. It returns the total bytes written.
func (w *artifactWriter) finish() (int64, error) {
	if w.done {
		return 0, fmt.Errorf("artifact %s: finish after close", w.path)
	}
	var tr [artifactTrailerLen]byte
	binary.LittleEndian.PutUint32(tr[:4], w.crc.Sum32())
	copy(tr[4:], artifactEndMagic[:])
	if _, err := w.bw.Write(tr[:]); err != nil {
		w.abort()
		return 0, err
	}
	if err := w.bw.Flush(); err != nil {
		w.abort()
		return 0, err
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			w.abort()
			return 0, err
		}
	}
	w.done = true
	if err := w.f.File.Close(); err != nil {
		os.Remove(w.path + ".tmp")
		return 0, err
	}
	if err := fault.Rename(w.path+".tmp", w.path); err != nil {
		os.Remove(w.path + ".tmp")
		return 0, err
	}
	return artifactOverhead + w.n, nil
}

// abort closes and removes the tmp file; safe to call after finish.
func (w *artifactWriter) abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.File.Close()
	os.Remove(w.path + ".tmp")
}

// artifactReader streams an artifact's payload, validating the framing
// at open and the CRC when the payload is exhausted. A CRC mismatch is
// reported (once, in place of io.EOF) as *CorruptArtifactError after
// quarantining the file.
type artifactReader struct {
	path      string
	f         *fault.File
	br        *bufio.Reader
	crc       hash.Hash32
	remaining int64
	want      uint32
	checked   bool
	corrupt   error
}

// openArtifact opens and frame-checks an artifact, returning the reader
// and the payload length. Framing violations quarantine the file.
func openArtifact(path string, kind byte) (*artifactReader, int64, error) {
	f, err := fault.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.File.Close()
		return nil, 0, err
	}
	size := st.Size()
	if size < artifactOverhead {
		f.File.Close()
		return nil, 0, quarantine(path, "truncated (no room for framing)")
	}
	var hdr [artifactHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.File.Close()
		return nil, 0, err
	}
	switch {
	case !bytes.Equal(hdr[:4], artifactMagic[:]):
		f.File.Close()
		return nil, 0, quarantine(path, "bad magic")
	case hdr[4] != artifactVersion:
		f.File.Close()
		return nil, 0, quarantine(path, fmt.Sprintf("unsupported version %d", hdr[4]))
	case hdr[5] != kind:
		f.File.Close()
		return nil, 0, quarantine(path, fmt.Sprintf("kind %d, want %d", hdr[5], kind))
	}
	var tr [artifactTrailerLen]byte
	if _, err := f.ReadAt(tr[:], size-artifactTrailerLen); err != nil {
		f.File.Close()
		return nil, 0, err
	}
	if !bytes.Equal(tr[4:], artifactEndMagic[:]) {
		f.File.Close()
		return nil, 0, quarantine(path, "missing end marker (torn write)")
	}
	if _, err := f.Seek(artifactHeaderLen, io.SeekStart); err != nil {
		f.File.Close()
		return nil, 0, err
	}
	payload := size - artifactOverhead
	return &artifactReader{
		path: path, f: f, br: bufio.NewReaderSize(f, 1<<18),
		crc: crc32.NewIEEE(), remaining: payload,
		want: binary.LittleEndian.Uint32(tr[:4]),
	}, payload, nil
}

// Read implements io.Reader over the payload. At payload end it checks
// the CRC: a mismatch quarantines the file and replaces io.EOF with
// *CorruptArtifactError.
func (r *artifactReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		if !r.checked {
			r.checked = true
			if r.crc.Sum32() != r.want {
				r.corrupt = quarantine(r.path, "payload checksum mismatch")
			}
		}
		if r.corrupt != nil {
			return 0, r.corrupt
		}
		return 0, io.EOF
	}
	if int64(len(p)) > r.remaining {
		p = p[:r.remaining]
	}
	n, err := r.br.Read(p)
	if n > 0 {
		r.crc.Write(p[:n])
		r.remaining -= int64(n)
	}
	if err == io.EOF && r.remaining > 0 {
		// The size said there were more payload bytes; treat as torn.
		r.checked = true
		r.corrupt = quarantine(r.path, "payload shorter than framing")
		err = r.corrupt
	}
	return n, err
}

func (r *artifactReader) close() { r.f.File.Close() }

// verifyArtifact reads the whole artifact once, checking framing and
// CRC; it is the open-time verification for files whose consumers may
// legitimately stop reading early (binary-search probes, early-stopping
// merges).
func verifyArtifact(path string, kind byte) error {
	r, _, err := openArtifact(path, kind)
	if err != nil {
		return err
	}
	defer r.close()
	if _, err := io.Copy(io.Discard, r); err != nil {
		return err
	}
	return nil
}

// blockWriter is an artifact of small records written a block at a time:
// a record is appended to buf and followed by flushFull, which hands the
// block to the artifact writer once it has filled, so the artifact layer
// checksums and copies per block instead of per field. A framed artifact
// (the spill store's segments) writes each block behind its uvarint
// length, which lets a reader take a block whole and decode it elsewhere.
type blockWriter struct {
	*artifactWriter
	buf    []byte
	framed bool
}

// artifactBlock is the size a block is flushed at: a few hundred node
// records, the grain a level's workers share a segment in.
const artifactBlock = 64 << 10

func newBlockWriter(path string, kind byte, framed bool) (*blockWriter, error) {
	aw, err := newArtifactWriter(path, kind)
	if err != nil {
		return nil, err
	}
	return &blockWriter{artifactWriter: aw, framed: framed}, nil
}

func (w *blockWriter) flushFull() error {
	if len(w.buf) < artifactBlock {
		return nil
	}
	return w.flush()
}

func (w *blockWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if w.framed {
		var l [binary.MaxVarintLen64]byte
		if _, err := w.Write(l[:binary.PutUvarint(l[:], uint64(len(w.buf)))]); err != nil {
			return err
		}
	}
	_, err := w.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// finish flushes the last block and publishes the artifact, returning the
// total bytes written; on failure the artifact is aborted.
func (w *blockWriter) finish() (int64, error) {
	if err := w.flush(); err != nil {
		w.abort()
		return 0, err
	}
	return w.artifactWriter.finish()
}

// artifactScanner reads an artifact's payload record by record through a
// buffer. The payload checksum is verified as a side effect of reaching
// the end; a record that cannot lie within the payload is corruption too.
type artifactScanner struct {
	*bufio.Reader
	ar      *artifactReader
	payload int64
}

func scanArtifact(path string, kind byte) (*artifactScanner, error) {
	ar, payload, err := openArtifact(path, kind)
	if err != nil {
		return nil, err
	}
	return &artifactScanner{Reader: bufio.NewReaderSize(ar, 1<<18), ar: ar, payload: payload}, nil
}

// short is err with a payload that ends inside a record reported as the
// corruption it is: the end of a payload is clean only between records.
func (s *artifactScanner) short(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return quarantine(s.ar.path, "record cut short")
	}
	return err
}

func (s *artifactScanner) close() { s.ar.close() }

// blob reads a uvarint length and that many bytes into buf, grown as
// needed. It returns io.EOF only when the payload ended cleanly before
// the length.
func (s *artifactScanner) blob(buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(s)
	if err != nil {
		if err != io.EOF {
			err = s.short(err)
		}
		return buf, err
	}
	if n > uint64(s.payload) {
		// Only a damaged length can exceed the artifact holding it; do not
		// allocate on its say-so.
		return buf, quarantine(s.ar.path, "record longer than the payload")
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(s, buf); err != nil {
		return buf, s.short(err)
	}
	return buf, nil
}

// readArtifactFile reads and verifies a whole-buffer artifact.
func readArtifactFile(path string, kind byte) ([]byte, error) {
	s, err := scanArtifact(path, kind)
	if err != nil {
		return nil, err
	}
	defer s.close()
	return io.ReadAll(s) // to the end of the payload, where the CRC is checked
}

// removeStaleArtifacts deletes leftover *.tmp files (and, when prefixes
// are given, abandoned artifacts with those name prefixes) from a
// directory a previous process may have died in. Quarantined files are
// kept for inspection.
func removeStaleArtifacts(dir string, prefixes ...string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		if filepath.Ext(name) == ".tmp" {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		for _, p := range prefixes {
			if len(name) >= len(p) && name[:len(p)] == p {
				os.Remove(filepath.Join(dir, name))
				break
			}
		}
	}
}
