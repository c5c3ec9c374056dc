package check

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/model"
)

// This file is the one serialised form of a node and the one way back.
// The spill store's frontier spool (blocks of records inside a segment
// artifact) and a distributed run's successor batches (internal/dist)
// both hold node records; the CRC that guards the bytes is the
// container's — the artifact's or the frame's — not the record's.
//
// Record layout:
//
//	pid+1  uvarint
//	depth  uvarint
//	fp     uint64 LE   dedup fingerprint, canonical under the run's reduction
//	count  uvarint, count × uint64 LE   the slot-hash vector (objects, then states); count 0 under exact keys
//	klen   uvarint, key [klen]byte      exact key: the ref tuple (empty unless the run uses exact keys)
//	plen   uvarint, path [plen]byte     root-to-node pid path (empty unless the run keeps paths)
//
// Nothing is encoded to write a record: the slot hashes, read from the
// run's slot dictionary through the node's refs, stand for the
// configuration, which the reader resolves back to refs through its own
// run's dictionary; and the slot fingerprint is not carried at all — it is
// the XOR of model.MixSlotHash over the vector. Refs are assigned in
// timing order, so they never leave the process that assigned them. An
// exact-key record is the one exception, since only the spill store writes
// it (a distributed run is fingerprint-keyed) and reads it back in the
// same run: its key is the node's ref tuple (keytable.go), which already
// determines every slot, and it carries no vector.

// NodeRecord is a decoded record. Slots, Key and Path alias the buffer it
// was decoded from.
type NodeRecord struct {
	Pid   int
	Depth int
	FP    uint64
	Slots []byte // the slot-hash vector as it lies in the record (empty under exact keys); see SlotHash
	Key   []byte
	Path  []byte
}

// NumSlots is the length of the record's slot-hash vector.
func (r *NodeRecord) NumSlots() int { return len(r.Slots) / 8 }

// SlotHash is the content hash of slot i.
func (r *NodeRecord) SlotHash(i int) uint64 { return binary.LittleEndian.Uint64(r.Slots[8*i:]) }

// NodeRecordMin is the length of the shortest record: two one-byte
// uvarints, the fingerprint, an empty slot vector and two empty blobs.
const NodeRecordMin = 13

// appendNodeRecord appends n's record to buf: the slot-hash vector of its
// refs into d, or under exact keys none and its ref tuple as the key.
func appendNodeRecord(buf []byte, n *Node, d *model.Dict, exact bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(n.Pid+1))
	buf = binary.AppendUvarint(buf, uint64(n.Depth))
	buf = binary.LittleEndian.AppendUint64(buf, n.fp)
	if exact {
		buf = binary.AppendUvarint(buf, 0)
		key := tupleKey(n.refs)
		buf = append(binary.AppendUvarint(buf, uint64(len(key))), key...)
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(n.refs)))
		for i, ref := range n.refs {
			buf = binary.LittleEndian.AppendUint64(buf, d.SlotHash(i, ref))
		}
		buf = binary.AppendUvarint(buf, 0)
	}
	return append(binary.AppendUvarint(buf, uint64(len(n.path))), n.path...)
}

// DecodeNodeRecord parses one record from the front of b and returns the
// remainder. Every length is checked against the bytes present, so no
// input panics or reads past b.
func DecodeNodeRecord(b []byte) (rec NodeRecord, rest []byte, err error) {
	pid1, n := binary.Uvarint(b)
	if n <= 0 {
		return rec, nil, errors.New("node record: pid truncated")
	}
	depth, m := binary.Uvarint(b[n:])
	if m <= 0 || len(b)-n-m < 8 {
		return rec, nil, errors.New("node record: depth or fingerprint truncated")
	}
	b = b[n+m:]
	rec.Pid, rec.Depth = int(pid1)-1, int(depth)
	rec.FP = binary.LittleEndian.Uint64(b)
	b = b[8:]
	count, c := binary.Uvarint(b)
	if c <= 0 || count > uint64(len(b)-c)/8 {
		return rec, nil, errors.New("node record: slot hashes truncated")
	}
	end := c + 8*int(count)
	rec.Slots, b = b[c:end:end], b[end:]
	var ok bool
	if rec.Key, b, ok = cutBlob(b); ok {
		rec.Path, b, ok = cutBlob(b)
	}
	if !ok {
		return rec, nil, errors.New("node record: key or path truncated")
	}
	return rec, b, nil
}

// cutBlob splits a uvarint-length-prefixed byte string off the front of b.
func cutBlob(b []byte) (blob, rest []byte, ok bool) {
	l, n := binary.Uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return nil, nil, false
	}
	return b[n : n+int(l) : n+int(l)], b[n+int(l):], true
}

// rematerialiser rebuilds nodes from records. Canonical Values and States
// cannot be decoded from bytes alone (states are protocol-defined and
// opaque), so each slot's hash is resolved to a ref through the run's slot
// dictionary: the spill store spools only nodes whose slots are in it,
// which makes a miss corruption; a distributed peer meets slots first seen
// on another process, and replays the record's path through its own
// stepper instead, which interns them, so the dictionary warms up to the
// hot slot population. An exact-key record's refs are the run's own
// already (the spill store wrote them), checked against the dictionary's
// size.
type rematerialiser struct {
	ctx storeCtx
	// replay rebuilds the (unkeyed) node at the end of a pid path from
	// worker w's supply; nil where a miss cannot legitimately occur.
	replay func(w int, path []byte) (*Node, error)
	// values and states bound an exact-key record's refs: the
	// dictionary's size when the records' level was settled.
	values, states int
}

// recScratch is one sequential reader's scratch: the record's slot
// hashes, and the slots of the records it resolved last, which the next
// record, most often a sibling, shares but for one or two.
type recScratch struct {
	hashes []uint64
	slots  model.SlotCache
}

// node rebuilds rec's node from worker w's supply, admission-ready. It is
// safe for concurrent use when replay is nil and no two callers share sc.
func (m *rematerialiser) node(w int, rec *NodeRecord, sc *recScratch) (*Node, error) {
	if m.ctx.stringKeys {
		return m.exactNode(w, rec)
	}
	nSlots := m.ctx.nObj + m.ctx.nProc
	if got := rec.NumSlots(); got != nSlots {
		return nil, fmt.Errorf("record carries %d slot hashes, want %d", got, nSlots)
	}
	// Nothing is stepped or encoded: the vector is the record's, each
	// slot's ref comes from the dictionary, and the slot fingerprint is
	// recomputed from the vector.
	sc.hashes = sc.hashes[:0]
	var slotFP uint64
	for i := range nSlots {
		h := rec.SlotHash(i)
		sc.hashes = append(sc.hashes, h)
		slotFP ^= model.MixSlotHash(i, h)
	}
	n := m.ctx.newNode(w)
	var err error
	switch miss := m.ctx.dict.Resolve(n.refs, sc.hashes, &sc.slots); {
	case miss < 0:
		n.slotFP = slotFP
		n.path = append(n.path[:0], rec.Path...)
	case m.replay == nil:
		err = fmt.Errorf("slot %d not interned", miss)
	default:
		m.ctx.recycle(w, n)
		if n, err = m.replay(w, rec.Path); err != nil {
			return nil, fmt.Errorf("record does not replay: %w", err)
		}
		// The replayed configuration's slot hashes must be the sender's —
		// a mismatch means the record does not belong to this run (wrong
		// protocol build, or a corrupted frame whose CRC collided). Only a
		// distributed run replays, and it is fingerprint-keyed (modes.go),
		// so the hashes are the whole match.
		for i, ref := range n.refs {
			if h := m.ctx.dict.SlotHash(i, ref); h != sc.hashes[i] {
				err = fmt.Errorf("record replays to slot %d hash %#x, sender advertised %#x", i, h, sc.hashes[i])
				break
			}
		}
	}
	if err != nil {
		m.ctx.recycle(w, n)
		return nil, err
	}
	n.Depth, n.Pid = rec.Depth, rec.Pid
	n.fp = rec.FP
	return n, nil
}

// exactNode is node for an exact-key record: its key is the node's refs.
// An exact-key run has no reduction (modes.go), so its dedup fingerprint
// is the slot fingerprint.
func (m *rematerialiser) exactNode(w int, rec *NodeRecord) (*Node, error) {
	nSlots := m.ctx.nObj + m.ctx.nProc
	if got := rec.NumSlots(); got != 0 {
		return nil, fmt.Errorf("exact-key record carries %d slot hashes", got)
	}
	if len(rec.Key) != 4*nSlots {
		return nil, fmt.Errorf("exact-key record's key has %d bytes, want %d", len(rec.Key), 4*nSlots)
	}
	n := m.ctx.newNode(w)
	copy(tupleBytes(n.refs), rec.Key)
	for i, ref := range n.refs {
		bound := m.values
		if i >= m.ctx.nObj {
			bound = m.states
		}
		if int(ref) >= bound {
			m.ctx.recycle(w, n)
			return nil, fmt.Errorf("slot %d holds ref %d, not interned", i, ref)
		}
	}
	n.Depth, n.Pid = rec.Depth, rec.Pid
	n.fp, n.slotFP = rec.FP, rec.FP
	n.path = append(n.path[:0], rec.Path...)
	return n, nil
}
