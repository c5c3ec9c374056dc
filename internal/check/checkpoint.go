package check

// Exploration checkpointing: at a level barrier the engine's state is a
// pure function of (visited set, next frontier, counters, search-layer
// accumulators) — no goroutine is live and no node is half-expanded —
// so a crash-consistent snapshot is three artifacts plus a manifest:
//
//	visited-<gen>   every visited (fingerprint, key) entry
//	frontier-<gen>  the next level's nodes as root-to-node pid paths
//	aux-<gen>       opaque search-layer accumulators (Explore/valency)
//	MANIFEST.json   counters + profile + generation, renamed LAST
//
// The manifest rename is the commit point: everything else is written
// (checksummed, tmp+renamed) before it, so a crash at any instant
// leaves either the old generation or the new one, never a mix.
//
// Frontier nodes are persisted as pid paths rather than configuration
// encodings because canonical Values/States are protocol-opaque (they
// cannot be decoded from bytes without the in-process intern exchange,
// which dies with the process). Resume replays the paths from the start
// configuration through Stepper.ApplyCOW and then re-applies the run's
// keying (expander.key), so the rebuilt nodes are bit-identical to the
// lost ones. Paths store one byte per step, which caps checkpointable
// protocols at 255 processes.
//
// Resume costs time linear in the snapshot. Both artifacts are decoded
// block-wise into flat arrays (8 bytes per fingerprint, one arena for
// all paths) and nothing decoded reaches the run until the artifact's
// CRC trailer has verified, so a corrupt generation still restarts from
// an empty store. The visited set is then bulk-loaded into tables sized
// first (StateStore.SeedVisited), and the frontier is replayed
// in path order with a stack of live nodes, so a prefix shared by many
// paths is applied once — at most the BFS-tree size in applies, not
// frontier × depth — by the run's workers in parallel (replayFrontier).
//
// Scope: level-synchronized order only. The async order has no barrier
// at which the invariant above holds, so ModeConflicts rejects the pair.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fault"
)

// ckptProfile pins the run parameters a checkpoint is only valid for.
// Workers and the store backend are deliberately absent: the
// visited snapshot is store-agnostic and partition routing is recomputed
// from fingerprints at seed time, so a run may resume with a different
// parallelism or store.
type ckptProfile struct {
	Protocol   string `json:"protocol"`
	NObj       int    `json:"n_obj"`
	NProc      int    `json:"n_proc"`
	StartFP    uint64 `json:"start_fp"`
	StringKeys bool   `json:"string_keys"`
	Reduction  string `json:"reduction"`
	MaxConfigs int    `json:"max_configs"`
	MaxDepth   int    `json:"max_depth"`
}

// ckptManifest is the commit record of one checkpoint generation.
type ckptManifest struct {
	Version   int         `json:"version"`
	Profile   ckptProfile `json:"profile"`
	Gen       int         `json:"gen"`
	NextDepth int         `json:"next_depth"`
	Processed int         `json:"processed"`
	Levels    int         `json:"levels"`
	Admitted  int64       `json:"admitted"`
	Closed    bool        `json:"closed"`
	Truncated bool        `json:"truncated"`
	// Finished marks a checkpoint taken at the run's final barrier
	// (empty next frontier or an early stop): resume restores the
	// verdict without re-entering the level loop.
	Finished bool `json:"finished"`
	HasAux   bool `json:"has_aux"`
	// Sum is the CRC32-IEEE of the manifest JSON serialized with Sum=0.
	Sum uint32 `json:"sum"`
}

const ckptManifestVersion = 1

func ckptManifestPath(dir string) string { return filepath.Join(dir, "MANIFEST.json") }

func ckptGenPath(dir, kind string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d", kind, gen))
}

// ckptLoaded is a fully-read and checksum-verified checkpoint, ready for
// the engine to seed.
type ckptLoaded struct {
	man ckptManifest
	// The visited snapshot: fingerprints and, under exact keys only, the
	// parallel keys.
	visitedFP   []uint64
	visitedKeys []string
	frontier    [][]byte // the frontier nodes' pid paths from the root
	aux         []byte
}

// loadCheckpoint reads the latest committed checkpoint under dir.
// Returns (nil, nil) when there is none, or when the one found is
// corrupt — corrupt generations are quarantined and the run restarts
// fresh (losing progress, never correctness). A manifest whose profile
// does not match the current run is an error: silently ignoring it
// would discard the user's checkpoint without telling them why.
func loadCheckpoint(dir string, profile ckptProfile) (*ckptLoaded, error) {
	raw, err := os.ReadFile(ckptManifestPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var man ckptManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		quarantine(ckptManifestPath(dir), "manifest not parseable")
		return nil, nil
	}
	if crc32.ChecksumIEEE(manifestSummed(raw)) != man.Sum || man.Version != ckptManifestVersion {
		quarantine(ckptManifestPath(dir), "manifest checksum/version mismatch")
		return nil, nil
	}
	// An earlier build's sleep-set run visited exactly its "sym" twin's
	// states, level by level, so its snapshot is that twin's.
	man.Profile.Reduction = strings.Replace(man.Profile.Reduction, "sleep=true", "sleep=false", 1)
	if man.Profile != profile {
		return nil, fmt.Errorf("checkpoint: %s holds a checkpoint for a different run (profile %+v, want %+v); use a fresh directory", dir, man.Profile, profile)
	}

	loaded := &ckptLoaded{man: man}
	if err := loaded.readVisited(dir); err != nil {
		return ckptDiscard(dir, man, err)
	}
	if err := loaded.readFrontier(dir); err != nil {
		return ckptDiscard(dir, man, err)
	}
	if man.HasAux {
		aux, err := readArtifactFile(ckptGenPath(dir, "aux", man.Gen), artifactAux)
		if err != nil {
			return ckptDiscard(dir, man, err)
		}
		loaded.aux = aux
	}
	return loaded, nil
}

// manifestSummed returns the bytes a manifest's checksum covers: the JSON
// as written with its trailing sum field zeroed. It works on the raw
// bytes instead of re-marshalling the decoded struct so that a manifest
// whose profile carries a field this build no longer has (earlier builds
// wrote "canonical":false) still verifies and resumes.
func manifestSummed(raw []byte) []byte {
	i := bytes.LastIndex(raw, []byte(`"sum":`))
	if i < 0 {
		return nil
	}
	return append(raw[:i:i], `"sum":0}`...)
}

// ckptDiscard handles a manifest that committed but whose artifacts are
// unreadable or corrupt: quarantine the generation and restart fresh.
// I/O errors other than corruption are surfaced (retrying fresh would
// likely hit them too).
func ckptDiscard(dir string, man ckptManifest, err error) (*ckptLoaded, error) {
	var corrupt *CorruptArtifactError
	if !errors.As(err, &corrupt) && !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	quarantine(ckptManifestPath(dir), "references unreadable artifacts")
	quarantine(ckptGenPath(dir, "visited", man.Gen), "generation discarded")
	quarantine(ckptGenPath(dir, "frontier", man.Gen), "generation discarded")
	if man.HasAux {
		quarantine(ckptGenPath(dir, "aux", man.Gen), "generation discarded")
	}
	return nil, nil
}

// readVisited decodes the visited snapshot, an entry stream (entry.go).
// The arrays are sized from what the snapshot already says: a fingerprint
// entry is 9 bytes, and an exact-key run holds the manifest's Admitted
// entries (plus whatever the spill store repeated).
func (l *ckptLoaded) readVisited(dir string) error {
	r, err := openEntries(ckptGenPath(dir, "visited", l.man.Gen), artifactVisited)
	if err != nil {
		return err
	}
	defer r.close()
	if l.man.Profile.StringKeys {
		l.visitedFP = make([]uint64, 0, l.man.Admitted)
		l.visitedKeys = make([]string, 0, l.man.Admitted)
	} else {
		l.visitedFP = make([]uint64, 0, r.payload/9)
	}
	return r.each(func(fp uint64, key string) error {
		l.visitedFP = append(l.visitedFP, fp)
		if l.visitedKeys != nil {
			l.visitedKeys = append(l.visitedKeys, key)
		}
		return nil
	})
}

// readFrontier decodes the frontier snapshot: uvarint plen | path bytes
// | 8 reserved bytes (a sleep mask in earlier builds; written 0, read
// and ignored). Every path lives in one arena the size of the payload
// (which the paths cannot outgrow), so loading allocates per snapshot,
// not per node.
func (l *ckptLoaded) readFrontier(dir string) error {
	path := ckptGenPath(dir, "frontier", l.man.Gen)
	r, payload, err := openArtifact(path, artifactFrontier)
	if err != nil {
		return err
	}
	defer r.close()
	br := bufio.NewReaderSize(r, 1<<18)
	arena := make([]byte, 0, payload)
	// Every node of a level has a path of NextDepth steps, which gives the
	// record count up front.
	l.frontier = make([][]byte, 0, payload/int64(9+l.man.NextDepth)+1)
	var reserved [8]byte
	for {
		plen, err := binary.ReadUvarint(br)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if plen > uint64(cap(arena)-len(arena)) {
			return quarantine(path, "path longer than the payload")
		}
		off := len(arena)
		arena = arena[:off+int(plen)]
		if _, err := io.ReadFull(br, arena[off:]); err != nil {
			return err
		}
		if _, err := io.ReadFull(br, reserved[:]); err != nil {
			return err
		}
		l.frontier = append(l.frontier, arena[off:len(arena):len(arena)])
	}
}

// ckptWriter owns the checkpoint directory for one engine run.
type ckptWriter struct {
	dir     string
	profile ckptProfile
	every   int // write at every N-th barrier (>=1)
	gen     int // next generation to write
	// dump is the store's DumpVisited, installed by the engine.
	dump func(emit func(fp uint64, key string) error) error
}

func newCkptWriter(dir string, profile ckptProfile, every, startGen int) (*ckptWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	removeStaleArtifacts(dir)
	if every < 1 {
		every = 1
	}
	return &ckptWriter{dir: dir, profile: profile, every: every, gen: startGen}, nil
}

// due reports whether the barrier completing depth should checkpoint.
func (w *ckptWriter) due(depth int) bool { return (depth+1)%w.every == 0 }

// writeBlocks writes one synced artifact of small records: fill appends
// each record to bw.buf and calls bw.flushFull (blockWriter).
func writeBlocks(path string, kind byte, fill func(bw *blockWriter) error) error {
	bw, err := newBlockWriter(path, kind, false)
	if err != nil {
		return err
	}
	bw.sync = true
	if err := fill(bw); err != nil {
		bw.abort()
		return err
	}
	_, err = bw.finish()
	return err
}

// write commits one checkpoint generation. nodes is the next level's
// frontier.
func (w *ckptWriter) write(man ckptManifest, nodes []*Node, aux []byte) error {
	gen := w.gen
	man.Version = ckptManifestVersion
	man.Profile = w.profile
	man.Gen = gen
	man.HasAux = len(aux) > 0

	err := writeBlocks(ckptGenPath(w.dir, "visited", gen), artifactVisited, func(bw *blockWriter) error {
		return w.dump(bw.addEntry)
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err = writeBlocks(ckptGenPath(w.dir, "frontier", gen), artifactFrontier, func(bw *blockWriter) error {
		for _, n := range nodes {
			bw.buf = binary.AppendUvarint(bw.buf, uint64(len(n.path)))
			bw.buf = append(bw.buf, n.path...)
			bw.buf = binary.LittleEndian.AppendUint64(bw.buf, 0) // reserved
			if err := bw.flushFull(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}

	if man.HasAux {
		err := writeBlocks(ckptGenPath(w.dir, "aux", gen), artifactAux, func(bw *blockWriter) error {
			bw.buf = aux // one block
			return nil
		})
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}

	// Commit: the manifest rename publishes the generation. A crash
	// before the rename leaves the previous manifest pointing at its
	// intact generation; the new generation's files are stale artifacts
	// a later open cleans up.
	man.Sum = 0
	clean, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	man.Sum = crc32.ChecksumIEEE(clean)
	final, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	mp := ckptManifestPath(w.dir)
	f, err := fault.Create(mp + ".tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Write(final); err != nil {
		f.File.Close()
		os.Remove(mp + ".tmp")
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.File.Close()
		os.Remove(mp + ".tmp")
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.File.Close(); err != nil {
		os.Remove(mp + ".tmp")
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Crash point: the full generation is on disk but unpublished.
	fault.Crash(fault.CrashCheckpointManifest)
	if err := fault.Rename(mp+".tmp", mp); err != nil {
		os.Remove(mp + ".tmp")
		return fmt.Errorf("checkpoint: %w", err)
	}

	// The previous generation is now unreachable; reclaim it.
	if gen > 1 {
		os.Remove(ckptGenPath(w.dir, "visited", gen-1))
		os.Remove(ckptGenPath(w.dir, "frontier", gen-1))
		os.Remove(ckptGenPath(w.dir, "aux", gen-1))
	}
	w.gen++
	return nil
}
