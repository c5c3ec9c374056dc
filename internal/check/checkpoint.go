package check

// Exploration checkpointing: at a level barrier the engine's state is a
// pure function of (visited set, next frontier, counters, search-layer
// accumulators) — no goroutine is live and no node is half-expanded —
// so a crash-consistent snapshot is a manifest over a few artifacts:
//
//	visited-<g>     generation g's visited delta: every entry the level
//	                cuts kept since generation g-1 (visited-1 starts at
//	                the root), each exactly once; an exact key as its
//	                configuration's encoding, not its ref tuple
//	frontier-<gen>  the next level's nodes as root-to-node pid paths
//	MANIFEST.json   counters + profile + generation + frontier checksum +
//	                the search layer's accumulators, renamed LAST
//
// ExploreOpts' accumulators are its ClassRecord (classes.go): each class
// met with its witness's depth, fingerprint and path, and the largest
// number of values decided together. Resume restores it as the
// distributed merge restores a peer's: every witness path is replayed and
// must reach a configuration of its class, or the run fails with an error
// naming the checkpoint directory, before anything is written.
//
// Generation gen's visited set is the union of visited-1 … visited-gen,
// which together hold exactly the manifest's Admitted entries: a snapshot
// writes what its barriers added, not the set again. The deltas stay on
// disk as long as the manifest names them; a generation's frontier is
// reclaimed once the next one commits.
//
// The manifest rename is the commit point: everything else is written
// (checksummed, tmp+renamed) before it, so a crash at any instant
// leaves either the old generation or the new one, never a mix.
//
// Frontier nodes are persisted as pid paths rather than configuration
// encodings because canonical Values/States are protocol-opaque (they
// cannot be decoded from bytes without the in-process slot dictionary,
// which dies with the process). Resume replays the paths from the start
// configuration through the stepper and then re-applies the run's
// keying (expander.key), so the rebuilt nodes are bit-identical to the
// lost ones. Paths store one byte per step, which caps checkpointable
// protocols at 255 processes.
//
// An exact key is written as its configuration's encoding, which the
// dictionary lays out from its refs, for the same reason: refs are the
// process's own. A resume splits each encoding into its slots and interns
// them into its own dictionary (model.Dict.InternEncodings), as entries
// without objects until its stepper meets them, so the visited set holds
// ref tuples again. Writing the dictionary itself, in ref order, would let
// a resume keep the refs and the deltas hold tuples; encodings keep the
// layout (version 4) and a delta readable without the dictionary it was
// written with, at the price of splitting and interning every key on
// resume.
//
// Resume costs the visited set's load plus the first resumed level. Every
// delta is decoded block-wise into flat arrays (8 bytes per fingerprint)
// and the frontier into one path arena, and nothing decoded reaches the
// run until every artifact's CRC trailer has verified, so a corrupt
// generation still restarts from an empty store (an exact-key delta's
// keys are interned into the dictionary as they are read, but as bare
// entries, which nothing reads unless a stepper meets the same encoding
// and attaches its object). The visited set is then
// bulk-loaded into tables sized first (spillStore.SeedVisited). The
// frontier is never materialised: the path arena is the first resumed
// level's FrontierSource (replaySource), each worker replaying the chunk
// it takes — sorted, so a prefix the chunk's paths share is applied once —
// and expanding it like any other. The manifest's frontier node count and
// order-free sum of the nodes' mixed entries are recomputed by the
// replaying workers and checked before the first resumed barrier commits
// anything: a damaged or foreign frontier, or a protocol build whose
// paths replay to other configurations, fails the run.
//
// Scope: level-synchronized order only. The async order has no barrier
// at which the invariant above holds, so ModeConflicts rejects the pair.
// A due barrier still drains its whole next level into RAM to write the
// frontier (drainFrontier).

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/model"
)

// ckptProfile pins the run parameters a checkpoint is only valid for.
// Workers and the store's budget are deliberately absent: the
// visited deltas are store-agnostic and partition routing is recomputed
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
	// Aux is the search layer's accumulators (EngineOptions.checkpointAux:
	// ExploreOpts' ClassRecord, as JSON).
	Aux []byte `json:"aux,omitempty"`
	// FrontierNodes and FrontierSum are the frontier's node count and the
	// sum of its nodes' frontierMix terms, which the replay recomputes.
	FrontierNodes int64  `json:"frontier_nodes"`
	FrontierSum   uint64 `json:"frontier_sum"`
	// Sum is the CRC32-IEEE of the manifest JSON serialized with Sum=0.
	Sum uint32 `json:"sum"`
}

// ckptManifestVersion is the layout the manifest and its artifacts are
// in: 4 since a symmetry-quotiented run's fingerprints are class-sum
// hashes (model.Config.CanonicalSlotFingerprint), so its visited deltas,
// class record and frontier sum differ from version 3's (3: the manifest's
// aux became a ClassRecord, whose decided values keep their witnesses). A
// manifest of another version is quarantined like a corrupt one, and the
// run starts over.
const ckptManifestVersion = 4

func ckptManifestPath(dir string) string { return filepath.Join(dir, "MANIFEST.json") }

func ckptGenPath(dir, kind string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%d", kind, gen))
}

// frontierMix is a frontier node's term in the manifest's order-free
// frontier checksum: its dedup fingerprint, with its configuration's
// encoding enc folded in by FNV-1a under exact keys (nil otherwise; never
// its refs, which are timing), remixed, so that a node replaced by another
// moves the sum even where their fingerprints are alike.
func frontierMix(fp uint64, enc []byte) uint64 {
	for _, b := range enc {
		fp = (fp ^ uint64(b)) * 1099511628211
	}
	return model.Mix64(fp)
}

// ckptLoaded is a fully-read and checksum-verified checkpoint, ready for
// the engine to seed.
type ckptLoaded struct {
	dir string
	man ckptManifest
	// visited is the union of the deltas.
	visited entryList
	// paths is the frontier: FrontierNodes pid paths from the root of
	// NextDepth bytes each, back to back.
	paths []byte
}

// loadCheckpoint reads the latest committed checkpoint under dir; under
// exact keys its visited keys are interned into d. Returns (nil, nil)
// when there is none, or when the one found is corrupt or in another
// layout — such generations are quarantined and the run restarts fresh
// (losing progress, never correctness; what a failed load interned stays
// in d, unread). A manifest whose profile does not match the current run
// is an error: silently ignoring it would discard the user's checkpoint
// without telling them why.
func loadCheckpoint(dir string, profile ckptProfile, d *model.Dict) (*ckptLoaded, error) {
	raw, err := os.ReadFile(ckptManifestPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var man ckptManifest
	if err := json.Unmarshal(raw, &man); err != nil || man.Version != ckptManifestVersion || man.checksum() != man.Sum {
		quarantine(ckptManifestPath(dir), "manifest unparseable, of another layout version or corrupt")
		return nil, nil
	}
	if man.Profile != profile {
		return nil, fmt.Errorf("checkpoint: %s holds a checkpoint for a different run (profile %+v, want %+v); use a fresh directory", dir, man.Profile, profile)
	}

	loaded := &ckptLoaded{dir: dir, man: man}
	err = loaded.readVisited(d)
	if err == nil {
		err = loaded.readFrontier()
	}
	if err != nil {
		return ckptDiscard(dir, err)
	}
	return loaded, nil
}

// checksum is the manifest's Sum: the CRC32-IEEE of its JSON with Sum 0.
func (m ckptManifest) checksum() uint32 {
	m.Sum = 0
	clean, _ := json.Marshal(m) // plain fields: it cannot fail
	return crc32.ChecksumIEEE(clean)
}

// ckptDiscard handles a manifest that committed but whose artifacts are
// unreadable or corrupt: quarantine the manifest (the corrupt artifact is
// already) and restart fresh, which clears the rest of the generation.
// I/O errors other than corruption are surfaced (retrying fresh would
// likely hit them too).
func ckptDiscard(dir string, err error) (*ckptLoaded, error) {
	var corrupt *CorruptArtifactError
	if !errors.As(err, &corrupt) && !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	quarantine(ckptManifestPath(dir), "references unreadable artifacts")
	return nil, nil
}

// readVisited decodes the visited deltas, entry streams (entry.go), into
// arrays the size of the manifest's Admitted, which is what they hold
// between them: more or fewer entries is corruption. Under exact keys
// each encoded key is interned into d and becomes a key of the run's
// own, a view of one tuple arena.
func (l *ckptLoaded) readVisited(d *model.Dict) error {
	want := l.man.Admitted
	l.visited.fps = make([]uint64, 0, want)
	nObj, nProc := l.man.Profile.NObj, l.man.Profile.NProc
	var (
		tuples []uint32
		spans  [][]byte
		cache  model.SlotCache
	)
	if l.man.Profile.StringKeys {
		tuples = make([]uint32, 0, want*int64(nObj+nProc))
	}
	for g := 1; g <= l.man.Gen; g++ {
		r, err := openEntries(ckptGenPath(l.dir, "visited", g), artifactVisited)
		if err != nil {
			return err
		}
		err = r.each(func(fp uint64, key string) error {
			if tuples != nil {
				if int64(len(l.visited.fps)) == want {
					return &CorruptArtifactError{Path: ckptManifestPath(l.dir), Reason: fmt.Sprintf("the visited deltas hold more than the %d entries the manifest admits", want)}
				}
				var err error
				if spans, err = model.SlotSpans(keyView(key), nObj, nProc, spans); err != nil {
					return &CorruptArtifactError{Path: ckptGenPath(l.dir, "visited", g), Reason: err.Error()}
				}
				off := len(tuples)
				tuples = tuples[:off+len(spans)]
				d.InternEncodings(tuples[off:], spans, &cache)
				key = tupleKey(tuples[off:])
			}
			l.visited.add(fp, key)
			return nil
		})
		r.close()
		if err != nil {
			return err
		}
	}
	if n := int64(len(l.visited.fps)); n != want {
		return &CorruptArtifactError{Path: ckptManifestPath(l.dir),
			Reason: fmt.Sprintf("the visited deltas hold %d entries, the manifest admits %d", n, want)}
	}
	return nil
}

// readFrontier decodes the frontier snapshot, records of uvarint plen |
// path bytes, into one arena. Every node of a level has a path of
// NextDepth steps, so a record of another length is corruption.
func (l *ckptLoaded) readFrontier() error {
	path := ckptGenPath(l.dir, "frontier", l.man.Gen)
	r, err := scanArtifact(path, artifactFrontier)
	if err != nil {
		return err
	}
	defer r.close()
	depth := l.man.NextDepth
	l.paths = make([]byte, 0, r.payload/int64(depth+1)*int64(depth))
	var rec []byte
	for {
		if rec, err = r.blob(rec); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if len(rec) != depth {
			return quarantine(path, "a path of another length than the level's depth")
		}
		l.paths = append(l.paths, rec...)
	}
}

// ckptWriter owns the checkpoint directory for one engine run.
type ckptWriter struct {
	dir     string
	profile ckptProfile
	every   int // write at every N-th barrier (>=1)
	gen     int // next generation to write
	// dict lays out exact keys' encodings (nil under fingerprint keys),
	// into enc, through refs.
	dict *model.Dict
	enc  []byte
	refs []uint32
}

// newCkptWriter arms the directory for generations startGen on. A run
// that starts over (startGen 1) first removes every generation artifact a
// previous run left: none of them is named by a manifest any more. d is
// the run's dictionary under exact keys, nil under fingerprint keys.
func newCkptWriter(dir string, profile ckptProfile, every, startGen int, d *model.Dict) (*ckptWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if startGen == 1 {
		removeStaleArtifacts(dir, "visited-", "frontier-", "aux-")
	} else {
		removeStaleArtifacts(dir)
	}
	return &ckptWriter{dir: dir, profile: profile, every: max(every, 1), gen: startGen, dict: d,
		refs: make([]uint32, profile.NObj+profile.NProc)}, nil
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

// write commits one checkpoint generation: added is the visited delta
// since the previous one, nodes the next level's frontier.
func (w *ckptWriter) write(man ckptManifest, added entryList, nodes []*Node) error {
	gen := w.gen
	man.Version = ckptManifestVersion
	man.Profile = w.profile
	man.Gen = gen
	man.FrontierNodes = int64(len(nodes))

	err := writeBlocks(ckptGenPath(w.dir, "visited", gen), artifactVisited, func(bw *blockWriter) error {
		for i, fp := range added.fps {
			if err := bw.addEntry(fp, bytesView(w.encoding(keyTuple(w.refs, added.key(i))))); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = writeBlocks(ckptGenPath(w.dir, "frontier", gen), artifactFrontier, func(bw *blockWriter) error {
			for _, n := range nodes {
				man.FrontierSum += frontierMix(n.fp, w.encoding(n.refs))
				bw.buf = binary.AppendUvarint(bw.buf, uint64(len(n.path)))
				bw.buf = append(bw.buf, n.path...)
				if err := bw.flushFull(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err == nil {
		err = w.publish(man)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}

	// The previous generation's frontier is now unreachable; reclaim it.
	// Its visited delta is part of this generation's set.
	if gen > 1 {
		os.Remove(ckptGenPath(w.dir, "frontier", gen-1))
	}
	w.gen++
	return nil
}

// encoding is the encoding of the configuration refs stands for under
// exact keys, valid until the next call, and nil under fingerprint keys.
func (w *ckptWriter) encoding(refs []uint32) []byte {
	if w.dict == nil {
		return nil
	}
	w.enc = w.dict.AppendEncoding(w.enc[:0], refs)
	return w.enc
}

// publish commits a generation whose artifacts are written: the manifest
// rename is the commit point. A crash before the rename leaves the
// previous manifest pointing at its intact generation; the new
// generation's files are stale artifacts a later open cleans up or
// overwrites.
func (w *ckptWriter) publish(man ckptManifest) error {
	man.Sum = man.checksum()
	final, err := json.Marshal(man)
	if err != nil {
		return err
	}
	mp := ckptManifestPath(w.dir)
	f, err := fault.Create(mp + ".tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(final)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.File.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// Crash point: the full generation is on disk but unpublished.
		fault.Crash(fault.CrashCheckpointManifest)
		err = fault.Rename(mp+".tmp", mp)
	}
	if err != nil {
		os.Remove(mp + ".tmp")
	}
	return err
}
