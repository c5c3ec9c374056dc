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
// Record layout, byte for byte what the wire has always carried:
//
//	pid+1  uvarint
//	depth  uvarint
//	fp     uint64 LE   dedup fingerprint, canonical under the run's reduction
//	slotFP uint64 LE
//	rsvd   uint64 LE   reserved (a sleep mask in earlier builds): written 0, ignored on read
//	elen   uvarint, enc [elen]byte   compact Config encoding
//	plen   uvarint, path [plen]byte  root-to-node pid path (empty unless the run keeps paths)

// NodeRecord is a decoded record. Enc and Path alias the buffer it was
// decoded from.
type NodeRecord struct {
	Pid    int
	Depth  int
	FP     uint64
	SlotFP uint64
	Enc    []byte
	Path   []byte
}

// NodeRecordMin is the length of the shortest record: two one-byte
// uvarints, two fingerprints and the reserved word, two empty blobs.
const NodeRecordMin = 28

// AppendNodeRecord appends n's record to buf. enc is n's encoding as it
// lies in the returned buffer, for a caller that interns its slots.
func AppendNodeRecord(buf []byte, n *Node) (out, enc []byte) {
	buf = binary.AppendUvarint(buf, uint64(n.Pid+1))
	buf = binary.AppendUvarint(buf, uint64(n.Depth))
	buf = binary.LittleEndian.AppendUint64(buf, n.fp)
	buf = binary.LittleEndian.AppendUint64(buf, n.slotFP)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // reserved
	// The encoding's length is known only once it is written: write it
	// where it will lie behind a one-byte length, and move it up if the
	// length turns out wider.
	at := len(buf) + 1
	buf = n.Cfg.AppendEncoding(append(buf, 0))
	elen := len(buf) - at
	if elen < 0x80 {
		buf[at-1] = byte(elen)
	} else {
		var l [binary.MaxVarintLen64]byte
		w := binary.PutUvarint(l[:], uint64(elen))
		buf = append(buf, l[1:w]...)
		copy(buf[at-1+w:], buf[at:at+elen])
		copy(buf[at-1:], l[:w])
		at += w - 1
	}
	enc = buf[at : at+elen : at+elen]
	buf = binary.AppendUvarint(buf, uint64(len(n.path)))
	return append(buf, n.path...), enc
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
	if m <= 0 || len(b)-n-m < 24 {
		return rec, nil, errors.New("node record: depth or fingerprints truncated")
	}
	b = b[n+m:]
	rec.Pid, rec.Depth = int(pid1)-1, int(depth)
	rec.FP = binary.LittleEndian.Uint64(b)
	rec.SlotFP = binary.LittleEndian.Uint64(b[8:])
	var ok bool
	if rec.Enc, b, ok = cutBlob(b[24:]); ok {
		rec.Path, b, ok = cutBlob(b)
	}
	if !ok {
		return rec, nil, errors.New("node record: encoding or path truncated")
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
// opaque), so each slot's span of the encoding is looked up in an
// exchange: the spill store interns every slot it spools, which makes a
// miss corruption; a distributed peer meets spans first seen on another
// process, replays the record's path through its own stepper instead and
// interns the result, so the exchange warms up to the hot slot population.
type rematerialiser struct {
	ctx  storeCtx
	exch *model.SlotExchange
	// replay rebuilds the (unkeyed) node at the end of a pid path; nil
	// where a miss cannot legitimately occur.
	replay func(path []byte) (*Node, error)
}

// node rebuilds rec's node, admission-ready except for its exact key,
// which is the caller's to set. spans is scratch, returned for reuse. It
// is safe for concurrent use when replay is nil.
func (m *rematerialiser) node(rec NodeRecord, spans [][]byte) (*Node, [][]byte, error) {
	nObj := m.ctx.nObj
	spans, err := model.SlotSpans(rec.Enc, nObj, m.ctx.nProc, spans)
	if err != nil {
		return nil, spans, err
	}
	// Nothing is stepped: each slot's canonical value or state comes from
	// the exchange and its hash is recomputed from the span. miss is the
	// first slot (objects, then states) the exchange has never interned.
	n, miss := m.ctx.newNode(), -1
	for i, span := range spans {
		var ok bool
		if i < nObj {
			n.Cfg.Objects[i], ok = m.exch.Value(span)
		} else {
			n.Cfg.States[i-nObj], ok = m.exch.State(span)
		}
		if !ok {
			miss = i
			break
		}
		n.slotH[i] = model.SlotContentHash(span)
	}
	switch {
	case miss < 0:
		n.slotFP = rec.SlotFP
		n.path = append(n.path[:0], rec.Path...)
	case m.replay == nil:
		err = fmt.Errorf("slot %d encoding not interned", miss)
	default:
		m.ctx.recycle(n)
		if n, err = m.replay(rec.Path); err != nil {
			return nil, spans, fmt.Errorf("record does not replay: %w", err)
		}
		// The replayed configuration's slot fingerprint must match the
		// sender's — a mismatch means the record does not belong to this
		// run (wrong protocol build, or a corrupted frame whose CRC
		// collided).
		if n.slotFP != rec.SlotFP {
			err = fmt.Errorf("record replays to fingerprint %#x, sender advertised %#x", n.slotFP, rec.SlotFP)
		} else {
			m.exch.Intern(n.Cfg, spans, nObj)
		}
	}
	if err != nil {
		m.ctx.recycle(n)
		return nil, spans, err
	}
	n.Depth, n.Pid = rec.Depth, rec.Pid
	n.parent = nil
	n.fp = rec.FP
	n.key = ""
	return n, spans, nil
}
