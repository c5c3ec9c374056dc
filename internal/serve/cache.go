package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/sweep"
)

// CacheSchema versions the on-disk entry layout. Entries live under
// <dir>/<CacheSchema>/, so a future format change starts a fresh
// subdirectory instead of misreading old entries. v3: a symmetric
// instance's fingerprint (sweep.Cell.InstanceFingerprint, part of every
// key) became a class-sum hash, so v2 keys name instances by another
// function.
const CacheSchema = "v3"

// cacheEntry is one persisted verdict: the full key (verified on read,
// so filename hash collisions degrade to misses), the sweep record, and
// a checksum so a corrupted entry is detected rather than trusted.
type cacheEntry struct {
	Key    string       `json:"key"`
	Result sweep.Result `json:"result"`
	// Sum is the CRC32-IEEE of the entry JSON serialized with Sum=0.
	Sum uint32 `json:"sum"`
}

// Cache is the daemon's result cache: an in-memory index over an
// optional on-disk entry directory. All verdict-bearing records
// (ok/fail/violation) are cached; timeouts and errors never are — they
// describe the run, not the instance, and a retry may well succeed.
//
// Crash safety: entries are written to *.tmp and renamed into place, so
// a crash mid-store leaves at worst a stale tmp file (swept at the next
// open). Truncated or corrupt entries found at startup are moved to a
// quarantine/ subdirectory and treated as misses — never a crash, never
// a wrong answer served.
type Cache struct {
	dir string // entry directory (with schema suffix); "" = memory-only

	mu      sync.Mutex
	entries map[string]sweep.Result
	hits    int64
	misses  int64
	stores  int64
	// loadErrs counts I/O failures reading or persisting entries,
	// surfaced in stats so a failing cache directory is visible.
	loadErrs int64
	// quarantined counts corrupt entries moved aside at startup.
	quarantined int64
}

// NewCache opens (or creates) a cache rooted at dir; dir "" makes a
// memory-only cache that forgets everything on restart. Existing
// entries under the current schema are loaded eagerly — the daemon
// answers from them immediately after a restart. Stale tmp files from
// a crashed store are deleted; unreadable entries are quarantined.
func NewCache(dir string) (*Cache, error) {
	c := &Cache{entries: map[string]sweep.Result{}}
	if dir == "" {
		return c, nil
	}
	c.dir = filepath.Join(dir, CacheSchema)
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open cache: %w", err)
	}
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: open cache: %w", err)
	}
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A store was interrupted mid-write; the entry never
			// published, so the tmp file is garbage.
			os.Remove(filepath.Join(c.dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(c.dir, name)
		data, err := fault.ReadFile(path)
		if err != nil {
			c.loadErrs++
			continue
		}
		e, ok := decodeCacheEntry(data)
		if !ok {
			c.quarantineEntry(path)
			continue
		}
		c.entries[e.Key] = e.Result
	}
	return c, nil
}

// decodeCacheEntry parses and checksum-verifies one entry file.
func decodeCacheEntry(data []byte) (cacheEntry, bool) {
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Key == "" {
		return cacheEntry{}, false
	}
	sum := e.Sum
	e.Sum = 0
	clean, err := json.Marshal(e)
	if err != nil || crc32.ChecksumIEEE(clean) != sum {
		return cacheEntry{}, false
	}
	e.Sum = sum
	return e, true
}

// quarantineEntry moves a corrupt entry into quarantine/ (plain os
// calls: recovery is not subject to fault injection) and counts it.
func (c *Cache) quarantineEntry(path string) {
	qdir := filepath.Join(filepath.Dir(path), "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		os.Rename(path, filepath.Join(qdir, filepath.Base(path)))
	}
	c.quarantined++
}

// Get returns the cached record for key, counting the hit or miss.
func (c *Cache) Get(key string) (sweep.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return rec, ok
}

// Cacheable reports whether a record carries a verdict worth keeping:
// deterministic statuses only.
func Cacheable(rec sweep.Result) bool {
	switch rec.Status {
	case sweep.StatusOK, sweep.StatusFail, sweep.StatusViolation:
		return true
	}
	return false
}

// Put stores a verdict under key, persisting it when the cache is
// disk-backed. Non-cacheable records are ignored. A persistence failure
// keeps the in-memory entry (the daemon still answers) and is counted
// in loadErrs.
func (c *Cache) Put(key string, rec sweep.Result) {
	if !Cacheable(rec) {
		return
	}
	c.mu.Lock()
	c.entries[key] = rec
	c.stores++
	dir := c.dir
	c.mu.Unlock()
	if dir == "" {
		return
	}
	e := cacheEntry{Key: key, Result: rec}
	clean, err := json.Marshal(e)
	if err == nil {
		e.Sum = crc32.ChecksumIEEE(clean)
		var data []byte
		if data, err = json.Marshal(e); err == nil {
			// Write-then-rename so a crash mid-write cannot leave a torn
			// entry for the next startup to trip over.
			tmp := filepath.Join(dir, cacheFileName(key)+".tmp")
			if werr := fault.WriteFile(tmp, data, 0o644); werr == nil {
				// Crash point: the entry is fully written but unpublished.
				fault.Crash(fault.CrashCacheStore)
				err = fault.Rename(tmp, filepath.Join(dir, cacheFileName(key)))
				if err != nil {
					os.Remove(tmp)
				}
			} else {
				// A failed (possibly torn) data write leaves a partial tmp
				// file; remove it so nothing half-written survives.
				os.Remove(tmp)
				err = werr
			}
		}
	}
	if err != nil {
		c.mu.Lock()
		c.loadErrs++
		c.mu.Unlock()
	}
}

// CacheStats is the /cache/stats payload.
type CacheStats struct {
	Schema  string `json:"schema"`
	Dir     string `json:"dir,omitempty"`
	Entries int    `json:"entries"`
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	Stores  int64  `json:"stores"`
	// LoadErrors counts entries that could not be read at startup or
	// persisted at store time.
	LoadErrors int64 `json:"load_errors,omitempty"`
	// Quarantined counts corrupt entries moved to quarantine/ at startup.
	Quarantined int64 `json:"quarantined,omitempty"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Schema: CacheSchema, Dir: c.dir, Entries: len(c.entries),
		Hits: c.hits, Misses: c.misses, Stores: c.stores,
		LoadErrors: c.loadErrs, Quarantined: c.quarantined,
	}
}
