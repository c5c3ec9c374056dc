package check

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
)

// codecNodes explores a few levels of the toy-bit race with paths on and
// returns copies of the visited nodes: real configurations, fingerprints
// and paths for the codecs to carry.
func codecNodes(t *testing.T) []*Node {
	t.Helper()
	p, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	_, err = RunFrontier(p, model.MustNewConfig(p, []int{0, 1, 0}), []int{0, 1, 2},
		ExploreLimits{MaxDepth: 3}, EngineOptions{Workers: 1, Reduction: ReduceSym, Checkpoint: t.TempDir()},
		func(_ int, n *Node) error {
			c := *n
			c.Cfg = n.Cfg.Clone()
			c.path = bytes.Clone(n.path)
			nodes = append(nodes, &c)
			return nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) < 8 {
		t.Fatalf("only %d nodes to encode", len(nodes))
	}
	return nodes
}

// refNodeRecord is the record layout written out longhand, field by field
// as dist/wire.go's appendRecord wrote it before the codec moved here: the
// wire promise is that AppendNodeRecord's bytes are these, with a reserved
// word of 0 (it was the sleep mask).
func refNodeRecord(n *Node, reserved uint64) []byte {
	enc := n.Cfg.AppendEncoding(nil)
	b := binary.AppendUvarint(nil, uint64(n.Pid+1))
	b = binary.AppendUvarint(b, uint64(n.Depth))
	b = binary.LittleEndian.AppendUint64(b, n.fp)
	b = binary.LittleEndian.AppendUint64(b, n.slotFP)
	b = binary.LittleEndian.AppendUint64(b, reserved)
	b = append(binary.AppendUvarint(b, uint64(len(enc))), enc...)
	return append(binary.AppendUvarint(b, uint64(len(n.path))), n.path...)
}

// TestNodeRecordLayout: a record is byte for byte the pinned layout, its
// returned encoding is the node's, also when the encoding is long enough
// for a two-byte length, and it decodes to the node's fields — also from
// an earlier build's record, whose reserved word held a sleep mask.
func TestNodeRecordLayout(t *testing.T) {
	nodes := codecNodes(t)
	wide := stepProto{n: 40, steps: 2} // 40 states: an encoding past 127 bytes
	wn := &Node{Cfg: model.MustNewConfig(wide, make([]int, 40)), Pid: 7, Depth: 300, fp: 1, slotFP: 2, path: []byte{7}}
	if len(wn.Cfg.AppendEncoding(nil)) < 0x80 {
		t.Fatal("the wide node's encoding fits a one-byte length")
	}
	var buf []byte
	for _, n := range append(nodes, wn) {
		at := len(buf)
		var enc []byte
		buf, enc = AppendNodeRecord(buf, n)
		if want := refNodeRecord(n, 0); !bytes.Equal(buf[at:], want) {
			t.Fatalf("depth %d pid %d: record\n%x\nwant\n%x", n.Depth, n.Pid, buf[at:], want)
		}
		if want := n.Cfg.AppendEncoding(nil); !bytes.Equal(enc, want) {
			t.Fatalf("returned encoding %x, node encodes %x", enc, want)
		}
		rec, rest, err := DecodeNodeRecord(buf[at:])
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode: %v, %d bytes left", err, len(rest))
		}
		if rec.Pid != n.Pid || rec.Depth != n.Depth || rec.FP != n.fp || rec.SlotFP != n.slotFP ||
			!bytes.Equal(rec.Enc, enc) || !bytes.Equal(rec.Path, n.path) {
			t.Fatalf("decoded %+v from node %+v", rec, n)
		}
		if old, _, err := DecodeNodeRecord(refNodeRecord(n, 0b1011)); err != nil || !reflect.DeepEqual(old, rec) {
			t.Fatalf("a record with a sleep mask decodes to %+v (%v), without one to %+v", old, err, rec)
		}
	}
}

// TestFrontierReservedWord: a checkpoint frontier record's reserved word —
// a sleep mask in earlier builds' snapshots — is read and ignored.
func TestFrontierReservedWord(t *testing.T) {
	paths := [][]byte{{0, 1}, {2, 0}}
	read := func(reserved uint64) [][]byte {
		dir := t.TempDir()
		err := writeBlocks(ckptGenPath(dir, "frontier", 1), artifactFrontier, func(bw *blockWriter) error {
			for _, p := range paths {
				bw.buf = append(binary.AppendUvarint(bw.buf, uint64(len(p))), p...)
				bw.buf = binary.LittleEndian.AppendUint64(bw.buf, reserved)
			}
			return nil
		})
		l := &ckptLoaded{man: ckptManifest{Gen: 1, NextDepth: 2}}
		if err != nil || l.readFrontier(dir) != nil {
			t.Fatalf("writing or reading the frontier: %v", err)
		}
		return l.frontier
	}
	if got, zero := read(0b1011), read(0); !reflect.DeepEqual(got, paths) || !reflect.DeepEqual(zero, paths) {
		t.Errorf("frontier paths %v with a sleep mask, %v without, wrote %v", got, zero, paths)
	}
}

// TestSharedCodecCorruption holds the two shared codecs, as they lie on
// disk, to one contract: the clean artifact reads back as what was
// written, and every truncation and every single-bit flip of it reads as a
// *CorruptArtifactError — never a panic, never different contents. The
// wire half of the contract (a record block inside a frame fails as a
// *dist.FrameError) is internal/dist's TestWireFrameBitFlips,
// TestWireFrameTruncation and TestWireBatchCorruption.
func TestSharedCodecCorruption(t *testing.T) {
	nodes := codecNodes(t)[:5]
	entries := func(exact bool) []entry {
		var es []entry
		for _, n := range nodes {
			e := entry{fp: n.fp}
			if exact {
				e.key = n.Cfg.Key()
			}
			es = append(es, e)
		}
		return es
	}
	writeEntries := func(kind byte, es []entry) func(string) error {
		return func(path string) error {
			w, err := newBlockWriter(path, kind, false)
			if err != nil {
				return err
			}
			for i, e := range es {
				if err := w.addEntry(e.fp, e.key); err != nil {
					return err
				}
				if i%2 == 1 { // several blocks
					if err := w.flush(); err != nil {
						return err
					}
				}
			}
			_, err = w.finish()
			return err
		}
	}
	readEntries := func(kind byte) func(string) (string, error) {
		return func(path string) (string, error) {
			r, err := openEntries(path, kind)
			if err != nil {
				return "", err
			}
			defer r.close()
			var got []entry
			for {
				e, ok, err := r.next()
				if err != nil || !ok {
					return fmt.Sprint(got), err
				}
				got = append(got, e)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		want  string
		write func(path string) error
		read  func(path string) (string, error)
	}{
		{"segment", fmt.Sprint(recordStrings(nodes)),
			func(path string) error {
				w, err := newBlockWriter(path, artifactSegment, true)
				if err != nil {
					return err
				}
				for i, n := range nodes {
					w.buf, _ = AppendNodeRecord(w.buf, n)
					if i%2 == 1 { // several blocks, of two records
						if err := w.flush(); err != nil {
							return err
						}
					}
				}
				_, err = w.finish()
				return err
			},
			func(path string) (string, error) {
				r, err := scanArtifact(path, artifactSegment)
				if err != nil {
					return "", err
				}
				defer r.close()
				var got []string
				b := &segBlock{}
				for {
					if b.data, err = r.blob(b.data); err != nil {
						if err == io.EOF {
							err = nil
						}
						return fmt.Sprint(got), err
					}
					for b.off = 0; b.off < len(b.data); {
						rec, err := b.next(path)
						if err != nil {
							return "", err
						}
						got = append(got, fmt.Sprintf("%+v", rec))
					}
				}
			}},
		{"run/fingerprints", fmt.Sprint(entries(false)), writeEntries(artifactRun, entries(false)), readEntries(artifactRun)},
		{"run/exact-keys", fmt.Sprint(entries(true)), writeEntries(artifactRun, entries(true)), readEntries(artifactRun)},
		{"visited/exact-keys", fmt.Sprint(entries(true)), writeEntries(artifactVisited, entries(true)), readEntries(artifactVisited)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "artifact")
			if err := tc.write(path); err != nil {
				t.Fatal(err)
			}
			clean, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := tc.read(path); err != nil || got != tc.want {
				t.Fatalf("clean artifact read back as\n%s\n(%v), want\n%s", got, err, tc.want)
			}
			// unread: the damage is to bytes no reader looks at, so the
			// artifact may also read back clean — as exactly what was written.
			damaged := func(what string, raw []byte, unread bool) {
				t.Helper()
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				got, err := tc.read(path)
				var corrupt *CorruptArtifactError
				if !errors.As(err, &corrupt) && !(unread && err == nil && got == tc.want) {
					t.Fatalf("%s: read %q with error %v, want a *CorruptArtifactError", what, got, err)
				}
			}
			for n := 0; n < len(clean); n++ {
				damaged(fmt.Sprintf("truncated to %d of %d bytes", n, len(clean)), clean[:n], false)
			}
			for i := range clean {
				for bit := 0; bit < 8; bit++ {
					mut := bytes.Clone(clean)
					mut[i] ^= 1 << bit
					// Bytes 6 and 7 are the header's padding.
					damaged(fmt.Sprintf("byte %d bit %d flipped", i, bit), mut, i == 6 || i == 7)
				}
			}
		})
	}
}

func recordStrings(nodes []*Node) []string {
	var out []string
	for _, n := range nodes {
		rec, _, _ := DecodeNodeRecord(refNodeRecord(n, 0))
		out = append(out, fmt.Sprintf("%+v", rec))
	}
	return out
}

// TestSpillReloadEqualsOriginal: a node spooled to a segment and streamed
// back is the node the in-memory store hands the next level, field for
// field — fingerprint, slot fingerprint, depth, pid, path, exact key and
// configuration — under both keyings. The spill run's budget is one byte,
// so every level goes through the disk.
func TestSpillReloadEqualsOriginal(t *testing.T) {
	p, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	start := model.MustNewConfig(p, []int{0, 1, 0})
	for _, exact := range []bool{false, true} {
		visit := func(store string) map[string]string {
			var mu sync.Mutex
			seen := map[string]string{}
			_, err := RunFrontier(p, start, []int{0, 1, 2}, ExploreLimits{MaxDepth: 6},
				EngineOptions{Workers: 1, StringKeys: exact, Store: store, MemBudget: 1, Checkpoint: t.TempDir()},
				func(_ int, n *Node) error {
					mu.Lock()
					defer mu.Unlock()
					seen[n.Cfg.Key()] = fmt.Sprintf("fp %#x slotFP %#x depth %d pid %d path %v key %q slotH %v",
						n.fp, n.slotFP, n.Depth, n.Pid, n.path, n.key, n.slotH)
					return nil
				}, nil)
			if err != nil {
				t.Fatalf("exact=%t %s: %v", exact, store, err)
			}
			return seen
		}
		want, got := visit(StoreMem), visit(StoreSpill)
		if len(want) < 50 || len(got) != len(want) {
			t.Fatalf("exact=%t: mem visited %d configurations, spill %d", exact, len(want), len(got))
		}
		for cfg, w := range want {
			if got[cfg] != w {
				t.Errorf("exact=%t: configuration %q reloaded as\n%s\nwant\n%s", exact, cfg, got[cfg], w)
			}
		}
	}
}
