package check

import (
	"cmp"
	"slices"
	"strings"
)

// This file defines the pluggable state-store layer of the frontier
// engine. A StateStore owns the two memory-heavy halves of an exploration
// — deduplication (the visited set) and frontier queuing (the next-level
// node queue) — behind one interface, so the engine's level loop is
// storage-agnostic:
//
//   - memStore (store.go's sibling memstore.go) keeps an
//     open-addressing fingerprint table (or exact-key map) and in-RAM
//     node slices: the original engine behavior, extracted verbatim.
//
//   - spillStore (spillstore.go) bounds resident memory by a byte budget:
//     visited fingerprints spill to sorted run files resolved by k-way
//     merge at each level barrier (delayed duplicate detection), and
//     frontier nodes spool to disk segments as their compact binary
//     encodings, so the explorable space is bounded by disk, not RAM.
//
// During a level the visited set is only ever touched under the engine's
// claim lock (Claim), a worker's queue only by that worker (Queue), and
// EndLevel runs alone at the barrier. Stores therefore take no lock of
// their own, mirroring the fpSet contract.

// sortNodes sorts nodes into the canonical order, entryCompare's. It sorts
// (fingerprint, node) pairs, not the pointers: a level that overshoots the budget is
// hundreds of thousands of nodes scattered over the heap, and comparing
// two of them through their pointers is two cache misses, where two
// pairs lie side by side. A node is read only to break a fingerprint tie
// by key, which fingerprint-keyed runs never have.
func sortNodes(nodes []*Node) {
	type keyed struct {
		fp uint64
		n  *Node
	}
	ks := make([]keyed, len(nodes))
	for i, n := range nodes {
		ks[i] = keyed{n.fp, n}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.fp, b.fp); c != 0 {
			return c
		}
		return strings.Compare(a.n.key, b.n.key)
	})
	for i, k := range ks {
		nodes[i] = k.n
	}
}

// StoreStats summarizes a store's activity over one engine run. The
// spill-store numbers surface in sweep JSONL records so beyond-RAM runs
// are auditable.
type StoreStats struct {
	// Kind is the backend that ran: "mem" or "spill".
	Kind string `json:"kind"`
	// BytesSpilled is the total bytes written to disk: sorted fingerprint
	// runs plus spooled frontier segments (0 for memStore).
	BytesSpilled int64 `json:"bytes_spilled,omitempty"`
	// RunsWritten is the number of sorted fingerprint runs flushed.
	RunsWritten int `json:"runs_written,omitempty"`
	// RunsMerged is the number of run files consumed by compaction merges.
	RunsMerged int `json:"runs_merged,omitempty"`
	// PeakResidentBytes is the high-water estimate of the store's resident
	// memory (dedup tables and Bloom prefilters; frontier segments and
	// runs live on disk).
	PeakResidentBytes int64 `json:"peak_resident_bytes,omitempty"`
	// PrefilterHits is the number of admissions the spill store's Bloom
	// prefilter flagged as probably-spilled — the only entries that pay
	// for exact sorted-run probes at the barrier; everything else is
	// proven fresh and skips the merge (0 for memStore, which never
	// spills).
	PrefilterHits int64 `json:"prefilter_hits,omitempty"`
}

// FrontierSource hands out one level's frontier nodes in batches. Next is
// safe for concurrent use by the engine workers; nodes are handed out
// exactly once.
type FrontierSource interface {
	// Size is the number of nodes in the level.
	Size() int
	// Next fills buf with up to len(buf) nodes and returns how many; 0
	// means the level is exhausted.
	Next(buf []*Node) int
}

// LevelResult is what EndLevel returns at a level barrier. The number of
// surviving admissions is Frontier.Size().
type LevelResult struct {
	// Frontier is the next level's node source (Size 0 ends the run).
	Frontier FrontierSource
	// Revoked is the number of this level's admissions revoked as delayed
	// duplicates: entries the spill store tentatively admitted because
	// their fingerprints were only present in on-disk runs, resolved at
	// the barrier merge. Always 0 for memStore, whose tables are complete.
	Revoked int
	// Truncated reports that the budget cutoff dropped admissions (the
	// level overshot maxNext); the engine closes admissions in response.
	Truncated bool
}

// StateStore owns deduplication and frontier queuing for one engine run.
// Worker indices are the engine's; EndLevel/Stats/Close are called only
// from the engine's level loop. (The async order has no levels: it keeps
// its frontier in the workers' deques and only ever claims, in the
// in-memory store, see async.go.)
type StateStore interface {
	// Claim records the entry (fp, key) as visited and reports whether it
	// was absent — the admission decision, taken on the entry alone,
	// before any node for it exists. key is nil outside exact-key runs; it
	// may be scratch, and stored is the copy the store keeps, for the
	// admitted node to share. Calls must not overlap (the engine holds the
	// claim lock).
	Claim(fp uint64, key []byte) (stored string, added bool)
	// Queue queues n, whose entry this level's Claim admitted, for the
	// next level on worker's queue (calls for one worker must not overlap).
	// retained reports whether the store keeps the *Node (false means the
	// node's content is externalized — spooled to disk — and the engine
	// must recycle it).
	Queue(worker int, n *Node) (retained bool)
	// EndLevel runs at the level barrier: it resolves delayed duplicates,
	// enforces the budget cutoff (at most maxNext admissions survive,
	// chosen by ascending (fingerprint, key) — the engine's deterministic
	// truncation order), spills to disk if over budget, and returns the
	// next level's frontier.
	EndLevel(maxNext int) (LevelResult, error)
	// Stats reports cumulative store statistics.
	Stats() StoreStats
	// Close releases all resources (spill files, directories). It is safe
	// to call after an aborted level.
	Close() error

	// DumpVisited streams every visited entry to emit, for a checkpoint
	// snapshot; it runs at a level barrier only. It may emit an entry more
	// than once (the spill store's deltas and runs can overlap) and emits
	// resident tables in table order, which costs no memory but is the one
	// order that must never be inserted into a table that is still growing
	// (fpSet.reserve says why).
	DumpVisited(emit func(fp uint64, key string) error) error
	// SeedVisited therefore takes a snapshot whole, after its checksum has
	// verified: fps (and, under exact keys, the parallel keys; nil
	// otherwise) go into a table sized for them first, so seeding is
	// linear in the snapshot whatever order it arrives in and whichever
	// store wrote it. It runs once, on a fresh store, before the first
	// level; repeats in the snapshot are harmless.
	SeedVisited(fps []uint64, keys []string) error
}

// Store backend names accepted by EngineOptions.Store.
const (
	// StoreMem selects the in-memory state store (the default).
	StoreMem = "mem"
	// StoreSpill selects the disk-spilling state store.
	StoreSpill = "spill"
)

// DefaultMemBudget is the spill store's resident-byte budget when
// EngineOptions.MemBudget is unset: 256 MiB.
const DefaultMemBudget = 256 << 20

// storeCtx carries the engine-side context a store needs: the run shape,
// keying mode, and the node lifecycle hooks (pooled allocation and
// recycling stay engine-owned so both stores share one discipline).
type storeCtx struct {
	workers    int // queue count
	nObj       int
	nProc      int
	stringKeys bool
	// retain forces stores to keep admitted nodes in RAM (provenance
	// runs: parent chains must stay live, so frontier spooling is off and
	// only dedup state spills).
	retain  bool
	newNode func() *Node
	recycle func(*Node)
}
