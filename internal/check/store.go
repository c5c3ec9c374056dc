package check

import (
	"iter"
	"slices"
	"sync/atomic"

	"repro/internal/model"
)

// This file holds the vocabulary of the frontier engine's state store
// (spillstore.go): the one store that owns the two memory-heavy halves of
// an exploration, deduplication (the visited set) and frontier queuing (the
// next level's nodes). How far it leaves RAM is set by its byte budget:
//
//   - Without one (Store "" or "mem") it is the open-addressing visited
//     table (keyTable: probed by fingerprint, and under exact keys
//     decided by ref tuples that live in an arena) and per-worker node
//     slices: a claim is one
//     table probe, a queued node one append, and a barrier concatenates the
//     slices and cuts them back to the budget (kthEntry), keeping the
//     survivors in admission order. It touches no disk.
//
//   - With one (Store "spill") it spools the frontier to disk segments as
//     node records, provenance runs' included (their paths travel in the
//     records), and once the visited table outgrows the budget at a barrier
//     it spills it to a sorted run, resolving later re-admissions against
//     the runs at each barrier (delayed duplicate detection). The
//     explorable space is then bounded by disk, not RAM.
//
// During a level the visited set is only ever touched under the engine's
// claim lock (Claim), a worker's queue only by that worker (Queue), and
// EndLevel and CutLevel run alone at the barrier. The store therefore
// takes no lock of its own, mirroring the keyTable contract. (The async order
// has no levels: it keeps its frontier in the workers' deques and only
// ever claims, see async.go.)

// kthEntry returns the k-th smallest (from 0) of the n entries all
// yields, in entry order over the run's dictionary d: the budget cut's
// last kept entry, for either store. It is the k-th of their fingerprints
// sorted as integers (sortFingerprints); under exact keys, where entries
// may share a fingerprint, all is ranged over a second time for the keys
// of the entries tied at that fingerprint, and only those are compared,
// by their encodings.
func kthEntry(d *model.Dict, stringKeys bool, n, k int, all iter.Seq[entry]) entry {
	fps := make([]uint64, 0, n)
	for e := range all {
		fps = append(fps, e.fp)
	}
	sortFingerprints(fps)
	fp := fps[k]
	if !stringKeys {
		return entry{fp: fp}
	}
	lo, _ := slices.BinarySearch(fps, fp) // the first entry at fp
	var keys []string
	for e := range all {
		if e.fp == fp {
			keys = append(keys, e.key)
		}
	}
	slices.SortFunc(keys, func(a, b string) int { return compareKeys(d, a, b) })
	return entry{fp, keys[k-lo]}
}

// StoreStats summarizes a store's activity over one engine run. The
// spill numbers surface in sweep JSONL records so beyond-RAM runs are
// auditable.
type StoreStats struct {
	// Kind is the store that ran: "mem" (no budget) or "spill".
	Kind string `json:"kind"`
	// BytesSpilled is the total bytes written to disk: sorted fingerprint
	// runs plus spooled frontier segments (0 without a budget).
	BytesSpilled int64 `json:"bytes_spilled,omitempty"`
	// RunsWritten is the number of sorted fingerprint runs flushed.
	RunsWritten int `json:"runs_written,omitempty"`
	// RunsMerged is the number of run files consumed by compaction merges.
	RunsMerged int `json:"runs_merged,omitempty"`
	// PeakResidentBytes is the high-water estimate of the store's resident
	// memory (dedup tables and Bloom prefilters; frontier segments and
	// runs live on disk).
	PeakResidentBytes int64 `json:"peak_resident_bytes,omitempty"`
	// PrefilterHits is the number of admissions the Bloom prefilter flagged
	// as probably-spilled — the only entries that pay for exact sorted-run
	// probes at the barrier; everything else is proven fresh and skips the
	// merge (0 until a first run is written).
	PrefilterHits int64 `json:"prefilter_hits,omitempty"`
}

// add folds o, another process's share of one run, into s: the counters
// sum, and Kind is o's (every share ran the same store).
func (s *StoreStats) add(o StoreStats) {
	s.Kind = o.Kind
	s.BytesSpilled += o.BytesSpilled
	s.RunsWritten += o.RunsWritten
	s.RunsMerged += o.RunsMerged
	s.PeakResidentBytes += o.PeakResidentBytes
	s.PrefilterHits += o.PrefilterHits
}

// FrontierSource hands out one level's frontier nodes in batches. Next is
// safe for concurrent use by the engine workers; nodes are handed out
// exactly once.
type FrontierSource interface {
	// Size is the number of nodes in the level.
	Size() int
	// Next fills buf with up to len(buf) nodes for worker w and returns
	// how many; 0 means the level is exhausted. A source that builds its
	// nodes (replaySource, spillSource) takes them from w's supply, and
	// replaySource builds them with w's expander.
	Next(w int, buf []*Node) int
}

// memSource serves an in-RAM frontier slice: workers claim disjoint
// chunks with one atomic add per batch.
type memSource struct {
	nodes  []*Node
	cursor atomic.Int64
}

func (s *memSource) Size() int { return len(s.nodes) }

func (s *memSource) Next(_ int, buf []*Node) int {
	n := int64(len(buf))
	end := s.cursor.Add(n)
	start := end - n
	if start >= int64(len(s.nodes)) {
		return 0
	}
	if end > int64(len(s.nodes)) {
		end = int64(len(s.nodes))
	}
	copy(buf, s.nodes[start:end])
	return int(end - start)
}

// LevelResult is what CutLevel returns at a level barrier. The number of
// kept admissions is Frontier.Size().
type LevelResult struct {
	// Frontier is the next level's node source (Size 0 ends the run).
	Frontier FrontierSource
	// Truncated reports that the budget cutoff dropped admissions (the
	// level's survivors overshot maxNext).
	Truncated bool
}

// Store names accepted by EngineOptions.Store.
const (
	// StoreMem runs the state store without a byte budget (the default).
	StoreMem = "mem"
	// StoreSpill runs it under EngineOptions.MemBudget, spilling to disk.
	StoreSpill = "spill"
)

// DefaultMemBudget is the spill store's resident-byte budget when
// EngineOptions.MemBudget is unset: 256 MiB.
const DefaultMemBudget = 256 << 20

// storeCtx carries the engine-side context the store needs: the run shape
// and slot dictionary, keying mode, the node lifecycle hooks (the per-worker slab supplies stay
// engine-owned, so the store's nodes and the engine's share one
// discipline) and the run's one error cell: fail records an I/O or decode
// failure and stops the run, stopped reports that the run has stopped.
type storeCtx struct {
	workers    int // queue count
	nObj       int
	nProc      int
	dict       *model.Dict // the run's slot dictionary
	stringKeys bool
	newNode    func(worker int) *Node
	recycle    func(worker int, n *Node)
	fail       func(error)
	stopped    func() bool
}

// nodeKey is n's exact key — a view of its refs, valid until n is
// recycled — or "" under fingerprint keys.
func (c *storeCtx) nodeKey(n *Node) string {
	if c.stringKeys {
		return tupleKey(n.refs)
	}
	return ""
}

// keyStride is the length in refs of an exact key: a slot each, under
// exact keys; 0 (no key) under fingerprint keys.
func (c *storeCtx) keyStride() int {
	if c.stringKeys {
		return c.nObj + c.nProc
	}
	return 0
}
