package check

// This file is the engine-side face of distributed frontier sharding
// (internal/dist): the link interface a peer's engine drives and the
// fingerprint-to-peer routing. The design lifts the engine's
// single-process invariants to process boundaries:
//
//   - Fingerprints hash to peers through a fixed 64-way global partition
//     space (the top six fingerprint bits), split into contiguous ranges,
//     one per peer. Every configuration has
//     exactly one owning peer, whose visited set alone decides on it.
//
//   - A successor owned by a remote peer is built and shipped instead of
//     claimed, as the node record the spill store spools (noderec.go):
//     workers append it straight into the link's per-peer batch, and the
//     owning peer decodes the batches in place at the expand barrier,
//     claims each record on its fingerprint like a candidate of its own,
//     and rematerialises the ones that were new through a
//     model.SlotExchange, replaying the record's pid path through its own
//     stepper for spans it has never seen.
//
//   - Level barriers are a two-phase gather run by the coordinator;
//     remote admissions are applied single-threaded between the workers
//     joining and EndLevel, so they take no lock.
//     Budget truncation stays globally deterministic: peers report their
//     cumulative admissions, and on overshoot the coordinator gathers the
//     per-peer sorted frontier fingerprints, computes the global
//     sorted-fingerprint cutoff (the same order the store's EndLevel
//     uses) and hands each peer its keep count.
//
// Distribution runs the level-synchronized order only, which is what
// makes every cell of it deterministic: the one budget test is the
// coordinator's, at a barrier. It composes with the reduction stack
// (canonical fingerprints are computed peer-side) and with the store
// with or without a budget. It is rejected together with the async order, Provenance,
// StringKeys and Checkpoint (modes.go says why).

// DistNumParts is the size of the global partition space fingerprints
// hash into before peer assignment: fixed so the fp -> peer routing is
// independent of local worker settings, and taken from the top bits of
// the fingerprint.
const DistNumParts = 64

// DistPart returns fp's global partition index in [0, DistNumParts).
func DistPart(fp uint64) int { return int(fp >> 58) }

// DistPeerOf returns the peer (of peerCount) owning global partition
// part: contiguous ranges, the first (DistNumParts mod peerCount) peers
// one partition larger.
func DistPeerOf(part, peerCount int) int {
	base := DistNumParts / peerCount
	extra := DistNumParts % peerCount
	// Peers [0, extra) own base+1 partitions each.
	if wide := extra * (base + 1); part < wide {
		return part / (base + 1)
	} else {
		return extra + (part-wide)/base
	}
}

// NetStats reports a distributed run's wire activity. On a peer it
// counts that peer's own link; the coordinator's merged result sums the
// peers (each relayed record is counted once, at its sender).
type NetStats struct {
	// Peers is the number of peer processes that cooperated (0 for
	// single-process runs).
	Peers int `json:"peers,omitempty"`
	// BatchesSent is the number of successor-batch frames sent.
	BatchesSent int64 `json:"batches_sent,omitempty"`
	// BytesSent is the total frame bytes sent (headers included).
	BytesSent int64 `json:"bytes_sent,omitempty"`
	// PeerStalls counts blocking waits on remote peers: two per level,
	// one at each phase of the barrier.
	PeerStalls int64 `json:"peer_stalls,omitempty"`
	// PeersLost counts peer sessions confirmed dead mid-run. Without
	// fail-over any loss is fatal, so a result can only carry a nonzero
	// count when fail-over re-seeded the lost ranges and recovered.
	PeersLost int64 `json:"peers_lost,omitempty"`
	// ReseededPartitions is the total number of global partitions whose
	// owning peer index was re-seeded onto a replacement session (the
	// lost contiguous range, summed over fail-overs).
	ReseededPartitions int64 `json:"reseeded_partitions,omitempty"`
	// Retries counts reconnect attempts made while establishing
	// replacement sessions (successful and not).
	Retries int64 `json:"retries,omitempty"`
}

// Add folds o, another peer's share of one run, into s: every counter
// sums. Peers and the fail-over counters are the coordinator's to set
// afterwards (a peer reports them as 0).
func (s *NetStats) Add(o NetStats) {
	s.Peers += o.Peers
	s.BatchesSent += o.BatchesSent
	s.BytesSent += o.BytesSent
	s.PeerStalls += o.PeerStalls
	s.PeersLost += o.PeersLost
	s.ReseededPartitions += o.ReseededPartitions
	s.Retries += o.Retries
}

// DistBarrier is the coordinator's verdict at one level barrier.
type DistBarrier struct {
	// Keep, valid when Truncated, is how many of this peer's next-level
	// nodes survive the global budget cutoff (the peer keeps its Keep
	// smallest fingerprints — the global sorted order restricted to it).
	Keep int
	// Truncated reports that the global budget bound this level; every
	// peer closes admissions in response.
	Truncated bool
	// Done ends the run after this barrier (global next frontier empty,
	// or an early stop).
	Done bool
}

// DistLink is the engine's handle on one peer's wire endpoint,
// implemented by internal/dist. Send/FlushWorker are called by the
// worker goroutine named; everything else by the engine's control
// goroutine.
type DistLink interface {
	// Start sizes the per-worker outgoing buffers; called once before
	// any Send.
	Start(workers int)
	// Owns reports whether this peer owns fp's global partition.
	Owns(fp uint64) bool
	// Send buffers n's record (AppendNodeRecord) for its owning peer,
	// batched per peer like the engine's in-process successor batches. n
	// is the caller's again when Send returns.
	Send(worker int, n *Node) error
	// FlushWorker sends the worker's partial batches.
	FlushWorker(worker int) error

	// BarrierExpand flushes everything outstanding, announces that this
	// peer finished expanding the level, and blocks until the
	// coordinator's barrier — returning every remote record addressed to
	// this peer for the level, as blocks of whole node records.
	BarrierExpand(depth int) ([][]byte, error)
	// BarrierLevel reports the post-EndLevel state (cumulative local
	// admissions, next-frontier size, local early-stop request) and
	// blocks for the coordinator's verdict. fps is called only if the
	// global budget bound: it must return the next frontier's
	// fingerprints in ascending order.
	BarrierLevel(depth int, admitted int64, next int, stop bool, fps func() ([]uint64, error)) (DistBarrier, error)

	// NetStats reports the link's cumulative wire activity.
	NetStats() NetStats
}
