package check

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
)

// captured holds copies of a run's visited nodes, their refs re-interned
// in a dictionary of the test's own: a run's nodes hold refs into its
// dictionary, which does not outlive it.
type captured struct {
	dict  *model.Dict
	nodes []*Node
}

// visit is a RunFrontier visitor that copies each node into c.
func (c *captured) visit(_ int, n *Node, v *View) error {
	cfg := v.Config()
	m := *n
	m.refs = make([]uint32, len(n.refs))
	c.dict.Intern(cfg, m.refs)
	m.path = bytes.Clone(n.path)
	c.nodes = append(c.nodes, &m)
	return nil
}

// hashes is n's slot-hash vector, read through its refs.
func (c *captured) hashes(n *Node) []uint64 {
	out := make([]uint64, len(n.refs))
	for i, ref := range n.refs {
		out[i] = c.dict.SlotHash(i, ref)
	}
	return out
}

// config is n's configuration, materialised from its refs.
func (c *captured) config(n *Node, nObj, nProc int) *model.Config {
	cfg := &model.Config{Objects: make([]model.Value, nObj), States: make([]model.State, nProc)}
	c.dict.Materialise(n.refs, cfg)
	return cfg
}

// codecNodes explores a few levels of the toy-bit race with paths on and
// returns copies of the visited nodes: real configurations, fingerprints
// and paths for the codecs to carry.
func codecNodes(t *testing.T) *captured {
	t.Helper()
	p, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := &captured{dict: model.NewDict(p)}
	_, err = RunFrontier(p, model.MustNewConfig(p, []int{0, 1, 0}), []int{0, 1, 2},
		ExploreLimits{MaxDepth: 3}, EngineOptions{Workers: 1, Reduction: ReduceSym, Checkpoint: t.TempDir()},
		c.visit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.nodes) < 8 {
		t.Fatalf("only %d nodes to encode", len(c.nodes))
	}
	return c
}

// refNodeRecord is the record layout written out longhand, field by
// field: pid+1, depth, fingerprint, the slot-hash vector (empty under
// exact keys), the exact key (the ref tuple, empty under fingerprint
// keys) and the path.
func refNodeRecord(n *Node, slotH []uint64, exact bool) []byte {
	b := binary.AppendUvarint(nil, uint64(n.Pid+1))
	b = binary.AppendUvarint(b, uint64(n.Depth))
	b = binary.LittleEndian.AppendUint64(b, n.fp)
	var key []byte
	if exact {
		slotH = nil
		for _, ref := range n.refs {
			key = binary.NativeEndian.AppendUint32(key, ref)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(slotH)))
	for _, h := range slotH {
		b = binary.LittleEndian.AppendUint64(b, h)
	}
	b = append(binary.AppendUvarint(b, uint64(len(key))), key...)
	return append(binary.AppendUvarint(b, uint64(len(n.path))), n.path...)
}

// TestNodeRecordLayout: a record is byte for byte the pinned layout — a
// fingerprint-keyed one with its slot-hash vector, read from the
// dictionary through the node's refs, an exact-key one with its ref tuple
// as the key and no vector — also when the exact key is long enough for a
// two-byte length, and it decodes to the node's fields.
func TestNodeRecordLayout(t *testing.T) {
	two := stepProto{n: 1, steps: 2} // one object and one state
	d := model.NewDict(two)
	pinned := &Node{Pid: 2, Depth: 300, fp: 0x0102030405060708, refs: make([]uint32, 2), path: []byte{2, 0}}
	d.Intern(model.MustNewConfig(two, []int{0}), make([]uint32, 2))
	second := model.MustNewConfig(two, []int{0})
	second.Objects[0] = model.Int(7)
	d.Intern(second, pinned.refs) // refs 1 and 0
	le := func(h uint64) string { return hex.EncodeToString(binary.LittleEndian.AppendUint64(nil, h)) }
	tuple := hex.EncodeToString(binary.NativeEndian.AppendUint32(binary.NativeEndian.AppendUint32(nil, pinned.refs[0]), pinned.refs[1]))
	for _, tc := range []struct {
		exact bool
		want  string
	}{
		{false, "03" + "ac02" + "0807060504030201" + "02" + le(d.SlotHash(0, pinned.refs[0])) + le(d.SlotHash(1, pinned.refs[1])) + "00" + "020200"},
		{true, "03" + "ac02" + "0807060504030201" + "00" + "08" + tuple + "020200"},
	} {
		if got := hex.EncodeToString(appendNodeRecord(nil, pinned, d, tc.exact)); got != tc.want {
			t.Fatalf("pinned record (exact %t): %s, want %s", tc.exact, got, tc.want)
		}
	}
	c := codecNodes(t)
	wide := stepProto{n: 40, steps: 2} // 40 states: a key past 127 bytes
	wc := model.MustNewConfig(wide, make([]int, 40))
	wd := model.NewDict(wide)
	wn := &Node{Pid: 7, Depth: 300, fp: 1, slotFP: 2, refs: make([]uint32, len(wc.Objects)+40), path: []byte{7}}
	wd.Intern(wc, wn.refs)
	if 4*len(wn.refs) < 0x80 {
		t.Fatal("the wide node's key fits a one-byte length")
	}
	var buf []byte
	type dictNode struct {
		d *model.Dict
		n *Node
	}
	var all []dictNode
	for _, n := range c.nodes {
		all = append(all, dictNode{c.dict, n})
	}
	for _, dn := range append(all, dictNode{wd, wn}) {
		for _, exact := range []bool{false, true} {
			n, slotH := dn.n, (&captured{dict: dn.d}).hashes(dn.n)
			at := len(buf)
			buf = appendNodeRecord(buf, n, dn.d, exact)
			if want := refNodeRecord(n, slotH, exact); !bytes.Equal(buf[at:], want) {
				t.Fatalf("depth %d pid %d exact %t: record\n%x\nwant\n%x", n.Depth, n.Pid, exact, buf[at:], want)
			}
			rec, rest, err := DecodeNodeRecord(buf[at:])
			if err != nil || len(rest) != 0 {
				t.Fatalf("decode: %v, %d bytes left", err, len(rest))
			}
			key := ""
			if exact {
				slotH, key = nil, tupleKey(n.refs)
			}
			if rec.Pid != n.Pid || rec.Depth != n.Depth || rec.FP != n.fp || rec.NumSlots() != len(slotH) ||
				string(rec.Key) != key || !bytes.Equal(rec.Path, n.path) {
				t.Fatalf("decoded %+v from node %+v", rec, n)
			}
			for i, h := range slotH {
				if rec.SlotHash(i) != h {
					t.Fatalf("slot %d decoded as %#x, node holds %#x", i, rec.SlotHash(i), h)
				}
			}
		}
	}
}

// testStoreCtx is a store context for nObj objects and nProc processes
// over dict whose nodes come fresh and are never recycled.
func testStoreCtx(t *testing.T, nObj, nProc int, stringKeys bool, dict *model.Dict) storeCtx {
	return storeCtx{workers: 1, nObj: nObj, nProc: nProc, stringKeys: stringKeys, dict: dict,
		newNode: func(int) *Node { return &Node{refs: make([]uint32, nObj+nProc)} },
		recycle: func(int, *Node) {},
		fail:    func(err error) { t.Error(err) },
		stopped: func() bool { return false },
	}
}

// TestNodeRecordRoundTrip: every node of Table 1's row 3 (Algorithm 1,
// n=4, k=1, m=3) at depths 0-6, under both keyings, and of the toy-bit race
// at n=4 under the symmetry reduction, spooled to a budgeted store's
// segment and rematerialised, is the node it was: its materialised
// configuration, its refs and the slot hashes read through them, slot
// fingerprint, fingerprint, depth, pid and path. A fingerprint-keyed
// record is exactly its header, eight bytes a slot and the path; an
// exact-key one its header, the ref tuple (four bytes a slot) and the
// path, with no slot hashes.
func TestNodeRecordRoundTrip(t *testing.T) {
	row3 := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	toybit, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		p      model.Protocol
		inputs []int
		depth  int
		exact  bool
		reduce string
	}{
		{"row3", row3, []int{0, 1, 1, 0}, 6, false, ReduceNone},
		{"row3/exact", row3, []int{0, 1, 1, 0}, 6, true, ReduceNone},
		{"toybit/sym", toybit, []int{0, 1, 0, 1}, 0, false, ReduceSym},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := model.MustNewConfig(tc.p, tc.inputs)
			nObj, nProc := len(start.Objects), len(start.States)
			c := &captured{dict: model.NewDict(tc.p)}
			opts := EngineOptions{Workers: 1, StringKeys: tc.exact, Reduction: tc.reduce, Checkpoint: t.TempDir()}
			_, err := RunFrontier(tc.p, start, []int{0, 1, 2, 3}, ExploreLimits{MaxDepth: tc.depth}, opts, c.visit, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.nodes) < 1000 {
				t.Fatalf("only %d nodes to spool", len(c.nodes))
			}
			s, err := newSpillStore(testStoreCtx(t, nObj, nProc, tc.exact, c.dict), 1, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			want := map[uint64]*Node{}
			for _, n := range c.nodes {
				key := ""
				if tc.exact {
					key = tupleKey(n.refs)
				}
				header := uvarintLen(n.Pid+1) + uvarintLen(n.Depth) + 8 + uvarintLen(len(key)) + uvarintLen(len(n.path))
				size := header + uvarintLen(len(n.refs)) + 8*len(n.refs) + len(n.path)
				if tc.exact {
					size = header + 1 + 4*len(n.refs) + len(n.path)
				}
				if got := len(appendNodeRecord(nil, n, c.dict, tc.exact)); got != size {
					t.Fatalf("record of %d bytes, want %d", got, size)
				}
				want[n.fp] = n
				s.Claim(n.fp, key)
				s.Queue(0, n)
			}
			if _, err := s.EndLevel(); err != nil {
				t.Fatal(err)
			}
			lvl, err := s.CutLevel(len(c.nodes))
			if err != nil {
				t.Fatal(err)
			}
			if s.stats.BytesSpilled == 0 {
				t.Fatal("nothing was spooled")
			}
			describe := func(n *Node) string {
				return fmt.Sprintf("cfg %s refs %v slot hashes %x slotFP %#x fp %#x depth %d pid %d path %v",
					c.config(n, nObj, nProc).Key(), n.refs, c.hashes(n), n.slotFP, n.fp, n.Depth, n.Pid, n.path)
			}
			buf, got := make([]*Node, 64), 0
			for m := lvl.Frontier.Next(0, buf); m > 0; m = lvl.Frontier.Next(0, buf) {
				for _, n := range buf[:m] {
					w := want[n.fp]
					if w == nil {
						t.Fatalf("rematerialised a node never spooled: %s", describe(n))
					}
					if describe(n) != describe(w) {
						t.Fatalf("rematerialised\n%s\nspooled\n%s", describe(n), describe(w))
					}
					delete(want, n.fp)
					got++
				}
			}
			if len(want) != 0 {
				t.Fatalf("%d of %d spooled nodes never came back", len(want), len(c.nodes))
			}
		})
	}
}

func uvarintLen(x int) int { return len(binary.AppendUvarint(nil, uint64(x))) }

// TestRematerialiseReplayMismatch: a record whose slots the dictionary
// has never seen is rebuilt by replaying its path, and the replayed node
// must hold the record's slot-hash vector: one whose hash differs in one
// slot is an error, not a node.
func TestRematerialiseReplayMismatch(t *testing.T) {
	c := codecNodes(t)
	orig := c.nodes[len(c.nodes)-1]
	rec, _, err := DecodeNodeRecord(appendNodeRecord(nil, orig, c.dict, false))
	if err != nil {
		t.Fatal(err)
	}
	nSlots := len(orig.refs)
	// other is a node whose last slot (a state) differs from orig's.
	var other *Node
	for _, n := range c.nodes {
		if n.refs[nSlots-1] != orig.refs[nSlots-1] {
			other = n
		}
	}
	if other == nil {
		t.Fatal("no node differs from the last in its last slot")
	}
	p, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	objs := len(p.Objects())
	for _, flip := range []bool{false, true} {
		d := model.NewDict(p) // empty: every slot misses
		ctx := testStoreCtx(t, objs, nSlots-objs, false, d)
		m := rematerialiser{ctx: ctx, replay: func(_ int, path []byte) (*Node, error) {
			cfg := c.config(orig, objs, nSlots-objs)
			if flip {
				cfg.States[len(cfg.States)-1] = c.config(other, objs, nSlots-objs).States[len(cfg.States)-1]
			}
			n := ctx.newNode(0)
			n.slotFP = d.Intern(cfg, n.refs)
			n.path = append(n.path[:0], path...)
			return n, nil
		}}
		n, err := m.node(0, &rec, &recScratch{})
		switch {
		case flip && (err == nil || n != nil):
			t.Errorf("a replay one slot hash off gave node %v, error %v", n, err)
		case !flip && (err != nil || (&captured{dict: d}).config(n, objs, nSlots-objs).Key() != c.config(orig, objs, nSlots-objs).Key()):
			t.Errorf("a faithful replay gave error %v", err)
		}
	}
}

// TestFrontierReservedWord: a checkpoint frontier record is uvarint
// length | path, nothing more. The reserved word version 1 appended to
// every record (a sleep mask in still earlier builds) is gone, so a record
// that carries one is corruption, quarantined, not a path.
func TestFrontierReservedWord(t *testing.T) {
	paths := [][]byte{{0, 1}, {2, 0}}
	read := func(reserved bool) ([]byte, error) {
		dir := t.TempDir()
		err := writeBlocks(ckptGenPath(dir, "frontier", 1), artifactFrontier, func(bw *blockWriter) error {
			for _, p := range paths {
				bw.buf = append(binary.AppendUvarint(bw.buf, uint64(len(p))), p...)
				if reserved {
					bw.buf = binary.LittleEndian.AppendUint64(bw.buf, 0)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		l := &ckptLoaded{dir: dir, man: ckptManifest{Gen: 1, NextDepth: 2, FrontierNodes: int64(len(paths))}}
		err = l.readFrontier()
		return l.paths, err
	}
	if got, err := read(false); err != nil || !bytes.Equal(got, bytes.Join(paths, nil)) {
		t.Errorf("frontier paths %v (%v), wrote %v", got, err, paths)
	}
	var corrupt *CorruptArtifactError
	if _, err := read(true); !errors.As(err, &corrupt) {
		t.Errorf("a record with a reserved word reads as %v, want a *CorruptArtifactError", err)
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
	c := codecNodes(t)
	nodes := c.nodes[:5]
	// A run's exact key is a ref tuple, a delta's an encoding.
	entries := func(key func(n *Node) string) []entry {
		var es []entry
		for _, n := range nodes {
			es = append(es, entry{n.fp, key(n)})
		}
		return es
	}
	none := func(*Node) string { return "" }
	encoding := func(n *Node) string { return string(c.dict.AppendEncoding(nil, n.refs)) }
	segment := func(exact bool) func(string) error {
		return func(path string) error {
			w, err := newBlockWriter(path, artifactSegment, true)
			if err != nil {
				return err
			}
			for i, n := range nodes {
				w.buf = appendNodeRecord(w.buf, n, c.dict, exact)
				if i%2 == 1 { // several blocks, of two records
					if err := w.flush(); err != nil {
						return err
					}
				}
			}
			_, err = w.finish()
			return err
		}
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
	readRecords := func(path string) (string, error) {
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
	}
	nodeKeyOf := func(n *Node) string { return tupleKey(n.refs) }
	for _, tc := range []struct {
		name  string
		want  string
		write func(path string) error
		read  func(path string) (string, error)
	}{
		{"segment", fmt.Sprint(recordStrings(c, nodes, false)), segment(false), readRecords},
		{"segment/exact-keys", fmt.Sprint(recordStrings(c, nodes, true)), segment(true), readRecords},
		{"run/fingerprints", fmt.Sprint(entries(none)), writeEntries(artifactRun, entries(none)), readEntries(artifactRun)},
		{"run/exact-keys", fmt.Sprint(entries(nodeKeyOf)), writeEntries(artifactRun, entries(nodeKeyOf)), readEntries(artifactRun)},
		{"visited/exact-keys", fmt.Sprint(entries(encoding)), writeEntries(artifactVisited, entries(encoding)), readEntries(artifactVisited)},
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

func recordStrings(c *captured, nodes []*Node, exact bool) []string {
	var out []string
	for _, n := range nodes {
		rec, _, _ := DecodeNodeRecord(refNodeRecord(n, c.hashes(n), exact))
		out = append(out, fmt.Sprintf("%+v", rec))
	}
	return out
}

// TestSpillReloadEqualsOriginal: a node spooled to a segment and streamed
// back is the node the in-memory store hands the next level, field for
// field — fingerprint, slot fingerprint (the configuration's from-scratch
// one too), depth, pid, path and configuration (under exact keys, what its
// key stands for) — under both keyings. The spill run's budget is one
// byte, so every level goes through the disk.
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
			opts := EngineOptions{Workers: 1, StringKeys: exact, Store: store, Checkpoint: t.TempDir()}
			if store == StoreSpill {
				opts.MemBudget = 1
			}
			_, err := RunFrontier(p, start, []int{0, 1, 2}, ExploreLimits{MaxDepth: 6}, opts,
				func(_ int, n *Node, v *View) error {
					cfg := v.Config()
					mu.Lock()
					defer mu.Unlock()
					seen[cfg.Key()] = fmt.Sprintf("fp %#x slotFP %#x (%#x) depth %d pid %d path %v",
						n.fp, n.slotFP, cfg.SlotFingerprint(), n.Depth, n.Pid, n.path)
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
