package serve

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/fault"
	"repro/internal/sweep"
)

func okRecord(cell string) sweep.Result {
	return sweep.Result{Cell: cell, Row: "explore", N: 4, K: 2,
		Status: sweep.StatusOK, States: 42, Measured: -1, Certified: -1}
}

// Every verdict-relevant axis must produce its own cache key: a hit
// across any of these would hand back a verdict for a different
// experiment.
func TestCacheKeyAxesAreDistinct(t *testing.T) {
	base := Request{Row: "explore", N: 4, K: 2, MaxConfigs: 1000}
	variants := map[string]Request{
		"row":        {Row: "explore-anon", N: 4, K: 2, MaxConfigs: 1000},
		"n":          {Row: "explore", N: 5, K: 2, MaxConfigs: 1000},
		"k":          {Row: "explore", N: 4, K: 1, MaxConfigs: 1000},
		"reduce":     {Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Engine: sweep.EngineSpec{Reduce: "sym"}},
		"store":      {Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Engine: sweep.EngineSpec{Store: "spill"}},
		"order":      {Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Engine: sweep.EngineSpec{Order: "async"}},
		"keys":       {Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Engine: sweep.EngineSpec{Keys: "string"}},
		"maxconfigs": {Row: "explore", N: 4, K: 2, MaxConfigs: 2000},
		"maxdepth":   {Row: "explore", N: 4, K: 2, MaxConfigs: 1000, MaxDepth: 7},
		"schedules":  {Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Schedules: 5},
		"seed":       {Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Seed: 9},
		"inputs":     {Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Inputs: []int{0, 0, 0, 0}},
	}
	baseKey, err := base.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{"base": baseKey}
	for name, req := range variants {
		key, err := req.CacheKey()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, prevKey := range seen {
			if key == prevKey {
				t.Fatalf("axis %q collided with %q: %s", name, prev, key)
			}
		}
		seen[name] = key
	}
}

// Workers is a scheduling knob, not an experiment axis: the engine's
// determinism contract makes verdicts independent of it, so runs at
// different worker counts must share a slot.
func TestCacheKeyIgnoresWorkers(t *testing.T) {
	a := Request{Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Engine: sweep.EngineSpec{Workers: 1}}
	b := Request{Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Engine: sweep.EngineSpec{Workers: 16}}
	ka, err := a.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("worker/shard counts changed the cache key:\n  %s\n  %s", ka, kb)
	}
}

// The orbit fold: for a process-symmetric row, permuted input
// assignments are one instance and share a key; for Algorithm 1 (no
// declared symmetry) they are distinct instances.
func TestCacheKeyOrbitFold(t *testing.T) {
	perm1 := Request{Row: "explore-anon", N: 4, K: 2, MaxConfigs: 1000, Inputs: []int{0, 1, 1, 0}}
	perm2 := Request{Row: "explore-anon", N: 4, K: 2, MaxConfigs: 1000, Inputs: []int{1, 0, 0, 1}}
	k1, err := perm1.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := perm2.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("process-permuted symmetric instances got distinct keys:\n  %s\n  %s", k1, k2)
	}

	pos1 := Request{Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Inputs: []int{0, 1, 2, 0}}
	pos2 := Request{Row: "explore", N: 4, K: 2, MaxConfigs: 1000, Inputs: []int{1, 0, 2, 0}}
	p1, err := pos1.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pos2.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("permuted inputs shared a key for a protocol without declared symmetry")
	}
}

// Persistence round-trip: verdicts written by one cache instance must
// be served by a fresh instance over the same directory — the daemon
// restart scenario.
func TestCachePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := okRecord("explore/n=4/k=2/w0-s0-default")
	c1.Put("key-a", rec)
	c1.Put("key-b", okRecord("explore/n=5/k=2/w0-s0-default"))

	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("key-a")
	if !ok {
		t.Fatal("restarted cache missed a persisted verdict")
	}
	if got.Cell != rec.Cell || got.States != rec.States || got.Status != rec.Status {
		t.Fatalf("restarted cache returned %+v, want %+v", got, rec)
	}
	if st := c2.Stats(); st.Entries != 2 {
		t.Fatalf("restarted cache has %d entries, want 2", st.Entries)
	}
	if _, ok := c2.Get("key-c"); ok {
		t.Fatal("restarted cache invented an entry")
	}
}

// Only deterministic verdicts are worth keeping: a timeout or error
// describes one run, not the instance, and must not short-circuit
// retries.
func TestCacheRejectsNonVerdicts(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	for _, status := range []string{sweep.StatusTimeout, sweep.StatusError} {
		rec := okRecord("x")
		rec.Status = status
		c.Put("key-"+status, rec)
		if _, ok := c.Get("key-" + status); ok {
			t.Fatalf("cached a %q record", status)
		}
	}
	for _, status := range []string{sweep.StatusOK, sweep.StatusFail, sweep.StatusViolation} {
		rec := okRecord("x")
		rec.Status = status
		c.Put("key-"+status, rec)
		if _, ok := c.Get("key-" + status); !ok {
			t.Fatalf("did not cache a %q record", status)
		}
	}
}

// A corrupt or truncated entry file must be quarantined at startup, not
// crash the daemon or surface as a wrong verdict. Stale tmp files from
// an interrupted store are swept.
func TestCacheSkipsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put("good", okRecord("ok-cell"))
	schemaDir := filepath.Join(dir, CacheSchema)
	if err := os.WriteFile(filepath.Join(schemaDir, "torn.json"), []byte(`{"key":"`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A checksum-valid-JSON but bit-flipped entry: parseable, wrong CRC.
	if err := os.WriteFile(filepath.Join(schemaDir, "flipped.json"),
		[]byte(`{"key":"evil","result":{"cell":"x","status":"ok"},"sum":12345}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(schemaDir, "stale.json.tmp"), []byte(`{`), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("good"); !ok {
		t.Fatal("good entry lost next to a corrupt one")
	}
	if _, ok := c2.Get("evil"); ok {
		t.Fatal("checksum-mismatched entry was served")
	}
	st := c2.Stats()
	if st.Quarantined != 2 {
		t.Fatalf("quarantined = %d, want 2", st.Quarantined)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	for _, name := range []string{"torn.json", "flipped.json"} {
		if _, err := os.Stat(filepath.Join(schemaDir, "quarantine", name)); err != nil {
			t.Errorf("%s not quarantined: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(schemaDir, "stale.json.tmp")); !os.IsNotExist(err) {
		t.Error("stale tmp file survived startup")
	}
}

// A cache write that fails partway — disk full at the data write or at
// the commit rename — must leave no temp file behind, keep the verdict
// served from memory, and never crash.
func TestCachePutFaultLeavesNoTemp(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   fault.Op
	}{
		{"enospc-write", fault.OpWrite},
		{"enospc-rename", fault.OpRename},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c1, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			fault.Inject(fault.Rule{Path: CacheSchema, Op: tc.op, Err: syscall.ENOSPC})
			c1.Put("k", okRecord("cell"))
			fault.Reset()

			// The in-memory copy still serves.
			if _, ok := c1.Get("k"); !ok {
				t.Fatal("failed persist dropped the in-memory entry")
			}
			// No temp debris in the schema dir.
			ents, err := os.ReadDir(filepath.Join(dir, CacheSchema))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("failed persist left %s behind", e.Name())
				}
			}
			// A restart sees either nothing or a valid entry — never a
			// torn file (NewCache would quarantine it and count it).
			c2, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st := c2.Stats(); st.Quarantined != 0 {
				t.Fatalf("failed persist left a corrupt entry: %+v", st)
			}
		})
	}
}

// A torn cache write (crash mid-write simulation) must surface as a
// quarantined miss on restart, never as a wrong or partial verdict.
func TestCachePutTornWriteQuarantinedOnRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the data write: half the entry reaches the tmp file before
	// the error. The partial file must never be published.
	fault.Inject(fault.Rule{Path: CacheSchema, Op: fault.OpWrite, Err: syscall.EIO, Torn: true})
	c1.Put("k", okRecord("cell"))
	fault.Reset()

	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("k"); ok {
		t.Fatal("torn entry was served after restart")
	}
}

// Entries live under a schema-versioned subdirectory so a format change
// cannot misread old files.
func TestCacheSchemaDirectory(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", okRecord("cell"))
	entries, err := os.ReadDir(filepath.Join(dir, CacheSchema))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".json") {
		t.Fatalf("unexpected schema dir contents: %v", entries)
	}
}

// TestCacheEarlierSchemaNotRead: entries of an earlier schema stay where
// they are and are never served: a v2 directory holding a valid entry for
// a key is a miss for that key under v3.
func TestCacheEarlierSchemaNotRead(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", okRecord("cell"))
	if err := os.Rename(filepath.Join(dir, CacheSchema), filepath.Join(dir, "v2")); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("k"); ok {
		t.Fatal("a v2 entry was served")
	}
	if st := c2.Stats(); st.Entries != 0 || st.Quarantined != 0 {
		t.Fatalf("stats after opening over a v2 directory = %+v, want no entries and nothing quarantined", st)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "v2")); err != nil || len(ents) != 1 {
		t.Fatalf("the v2 directory was touched: %v, %v", ents, err)
	}
}
