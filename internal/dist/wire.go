// Package dist implements distributed frontier sharding: a
// coordinator/peer protocol that runs one exploration across several
// engine processes. Fingerprints hash to peers exactly as they hash to
// visited-set partitions in-process (check.DistPart / check.DistPeerOf:
// a fixed 64-way global partition space split into contiguous per-peer
// ranges), each peer runs the unmodified engine — memstore or
// spillstore, full reduction stack — over its range, and successors
// owned elsewhere travel as batched wire records framed with a CRC32
// per frame. The coordinator is a star hub: it relays successor batches
// between peers, runs the level barriers as a two-phase gather, and
// applies the global budget by merging per-peer sorted fingerprints.
// The level-synchronized order is the only one that runs here (the mode
// table rejects async with a distributed run), so that barrier is the
// whole protocol. coord.go and peer.go state its two sides; this file
// is the codec.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/check"
)

// Frame layout (everything little-endian):
//
//	magic   [4]byte "DWF1"
//	type    uint8
//	rsvd    [3]byte (zero)
//	length  uint32  payload bytes
//	payload [length]byte
//	crc     uint32  CRC32-IEEE over type..payload (bytes 4 .. 12+length)
//
// The CRC covers the type and length fields as well as the payload, so
// a flipped length byte fails the checksum instead of mis-framing the
// stream; the magic resynchronization check catches the rest. The
// discipline mirrors the spill store's RAF1 record framing: every frame
// is verifiable in isolation, and any corruption surfaces as a typed
// *FrameError, never as a wrong admit.

const frameMagic = "DWF1"

// maxFramePayload bounds a single frame (a length-overflow guard: a
// corrupt length field cannot make the reader allocate gigabytes).
const maxFramePayload = 64 << 20

const frameHeaderLen = 12 // magic + type + reserved + length

type frameType uint8

const (
	frameHello    frameType = 1 // coordinator -> peer: run spec (JSON helloMsg)
	frameHelloAck frameType = 2 // peer -> coordinator: ready (JSON helloAckMsg)
	frameBatch    frameType = 3 // peer -> coordinator -> peer: successor records
	frameExpanded frameType = 4 // peer -> coordinator: level expansion finished (JSON depthMsg)
	frameBarrier  frameType = 5 // coordinator -> peer: all peers expanded (JSON depthMsg)
	frameLevel    frameType = 6 // peer -> coordinator: post-EndLevel report (JSON levelMsg)
	frameNeedFPs  frameType = 7 // coordinator -> peer: budget bound; send frontier fps (JSON depthMsg)
	frameFPs      frameType = 8 // peer -> coordinator: sorted fingerprint chunk (binary)
	frameCont     frameType = 9 // coordinator -> peer: barrier verdict (JSON contMsg)
	// 10-13 are retired, not reusable: they were the async order's
	// quiescence protocol (PROBE, PROBEREPLY, CLOSE, DONE), and a build
	// that still speaks it must get a typed error, not a misparse.
	frameResult frameType = 14 // peer -> coordinator: final result (JSON resultMsg)
	frameError  frameType = 15 // peer -> coordinator: run failed (JSON errorMsg)
	framePing   frameType = 16 // coordinator -> peer: liveness probe (empty)
	framePong   frameType = 17 // peer -> coordinator: liveness answer (empty)
	frameReseed frameType = 18 // coordinator -> peer: this session re-seeds a lost index (JSON reseedMsg)
	frameRange  frameType = 19 // coordinator -> peer: a partition range is being re-seeded (JSON rangeMsg)
)

const frameTypeMax = frameRange

// checkFrameType rejects type bytes no frame of this protocol carries.
func checkFrameType(b byte) error {
	switch t := frameType(b); {
	case t == 0 || t > frameTypeMax:
		return &FrameError{Reason: fmt.Sprintf("unknown frame type %d", b)}
	case t > frameCont && t < frameResult:
		return &FrameError{Reason: fmt.Sprintf("retired frame type %d", b)}
	}
	return nil
}

// FrameError is the typed failure for anything wrong at the framing
// layer: bad magic, an unknown type, an oversized or truncated frame,
// or a checksum mismatch. Corrupt bytes on a link always fail the run
// with one of these — they can never decode into a wrong admit.
type FrameError struct {
	Reason string
	Err    error
}

func (e *FrameError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("dist wire: %s: %v", e.Reason, e.Err)
	}
	return "dist wire: " + e.Reason
}

func (e *FrameError) Unwrap() error { return e.Err }

// appendFrame appends one framed message to buf.
func appendFrame(buf []byte, t frameType, payload []byte) []byte {
	buf = append(buf, frameMagic...)
	buf = append(buf, byte(t), 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	crc := crc32.ChecksumIEEE(buf[len(buf)-len(payload)-8:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// decodeFrame parses one frame from the front of b, returning the
// remainder. The returned payload aliases b.
func decodeFrame(b []byte) (t frameType, payload, rest []byte, err error) {
	if len(b) < frameHeaderLen {
		return 0, nil, nil, &FrameError{Reason: "truncated header"}
	}
	if string(b[:4]) != frameMagic {
		return 0, nil, nil, &FrameError{Reason: fmt.Sprintf("bad magic %q", b[:4])}
	}
	t = frameType(b[4])
	if err := checkFrameType(b[4]); err != nil {
		return 0, nil, nil, err
	}
	n := binary.LittleEndian.Uint32(b[8:12])
	if n > maxFramePayload {
		return 0, nil, nil, &FrameError{Reason: fmt.Sprintf("frame length %d exceeds cap %d", n, maxFramePayload)}
	}
	total := frameHeaderLen + int(n) + 4
	if len(b) < total {
		return 0, nil, nil, &FrameError{Reason: "truncated frame"}
	}
	payload = b[frameHeaderLen : frameHeaderLen+int(n)]
	want := binary.LittleEndian.Uint32(b[frameHeaderLen+int(n):])
	if got := crc32.ChecksumIEEE(b[4 : frameHeaderLen+int(n)]); got != want {
		return 0, nil, nil, &FrameError{Reason: fmt.Sprintf("checksum mismatch: frame says %#x, bytes hash to %#x", want, got)}
	}
	return t, payload, b[total:], nil
}

// readFrame reads one frame from r into buf (grown as needed), returning
// the payload (aliasing buf) and the possibly-grown buffer for reuse.
func readFrame(r io.Reader, buf []byte) (t frameType, payload, out []byte, err error) {
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, 0, 4096)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, buf, err
		}
		return 0, nil, buf, &FrameError{Reason: "reading header", Err: err}
	}
	if string(hdr[:4]) != frameMagic {
		return 0, nil, buf, &FrameError{Reason: fmt.Sprintf("bad magic %q", hdr[:4])}
	}
	t = frameType(hdr[4])
	if err := checkFrameType(hdr[4]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n > maxFramePayload {
		return 0, nil, buf, &FrameError{Reason: fmt.Sprintf("frame length %d exceeds cap %d", n, maxFramePayload)}
	}
	total := frameHeaderLen + int(n) + 4
	if cap(buf) < total {
		nb := make([]byte, total, total+total/2)
		copy(nb, hdr)
		buf = nb
	}
	buf = buf[:total]
	if _, err := io.ReadFull(r, buf[frameHeaderLen:]); err != nil {
		return 0, nil, buf, &FrameError{Reason: "truncated frame", Err: err}
	}
	payload = buf[frameHeaderLen : frameHeaderLen+int(n)]
	want := binary.LittleEndian.Uint32(buf[frameHeaderLen+int(n):])
	if got := crc32.ChecksumIEEE(buf[4 : frameHeaderLen+int(n)]); got != want {
		return 0, nil, buf, &FrameError{Reason: fmt.Sprintf("checksum mismatch: frame says %#x, bytes hash to %#x", want, got)}
	}
	return t, payload, buf, nil
}

// ---- successor-batch payloads ----

// Batch payload:
//
//	dest  uint8   receiving peer index
//	src   uint8   sending peer index
//	count uint32  records
//	recs  count × node record (check.AppendNodeRecord: the record the
//	      spill store spools, one layout for both)
const batchHeaderLen = 6

func appendBatchHeader(buf []byte, dest, src, count int) []byte {
	buf = append(buf, byte(dest), byte(src))
	return binary.LittleEndian.AppendUint32(buf, uint32(count))
}

// decodeBatch checks a batch payload — the header, and that what follows
// is exactly count whole records — and returns the records, aliasing b,
// for the engine to decode in place.
func decodeBatch(b []byte) (dest, src int, recs []byte, err error) {
	if len(b) < batchHeaderLen {
		return 0, 0, nil, &FrameError{Reason: "batch payload shorter than its header"}
	}
	dest, src = int(b[0]), int(b[1])
	count := binary.LittleEndian.Uint32(b[2:6])
	recs = b[batchHeaderLen:]
	// A count the payload cannot possibly hold is corruption — reject it
	// before looping on its say-so.
	if uint64(count)*check.NodeRecordMin > uint64(len(recs)) {
		return 0, 0, nil, &FrameError{Reason: fmt.Sprintf("batch record count %d exceeds payload capacity", count)}
	}
	rest := recs
	for i := uint32(0); i < count; i++ {
		if _, rest, err = check.DecodeNodeRecord(rest); err != nil {
			return 0, 0, nil, &FrameError{Reason: fmt.Sprintf("batch record %d", i), Err: err}
		}
	}
	if len(rest) != 0 {
		return 0, 0, nil, &FrameError{Reason: fmt.Sprintf("%d trailing bytes after batch records", len(rest))}
	}
	return dest, src, recs, nil
}

// ---- fingerprint-chunk payloads (global budget truncation) ----

// FPs payload: last uint8 (1 on the final chunk) | count uint32 |
// count × uint64. Chunked so one huge frontier never exceeds the frame
// cap.
const fpChunkMax = 1 << 20 // fingerprints per chunk (8 MiB payload)

func appendFPChunk(buf []byte, fps []uint64, last bool) []byte {
	var l byte
	if last {
		l = 1
	}
	buf = append(buf, l)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fps)))
	for _, fp := range fps {
		buf = binary.LittleEndian.AppendUint64(buf, fp)
	}
	return buf
}

func decodeFPChunk(b []byte) (fps []uint64, last bool, err error) {
	if len(b) < 5 {
		return nil, false, &FrameError{Reason: "fingerprint chunk header truncated"}
	}
	last = b[0] == 1
	count := binary.LittleEndian.Uint32(b[1:5])
	b = b[5:]
	if uint64(len(b)) != uint64(count)*8 {
		return nil, false, &FrameError{Reason: fmt.Sprintf("fingerprint chunk declares %d entries, carries %d bytes", count, len(b))}
	}
	fps = make([]uint64, count)
	for i := range fps {
		fps[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return fps, last, nil
}

// ---- control payloads (JSON) ----

// helloMsg is the run spec the coordinator hands each peer. One HELLO
// per connection; everything that shapes the explored space is pinned
// here so every peer provably checks the same instance.
type helloMsg struct {
	Proto  string `json:"proto"`
	N      int    `json:"n"`
	K      int    `json:"k"`
	M      int    `json:"m"`
	AgreeK int    `json:"agree_k"`
	Inputs []int  `json:"inputs"`

	MaxConfigs int `json:"max_configs"`
	MaxDepth   int `json:"max_depth,omitempty"`

	Workers   int    `json:"workers,omitempty"`
	Store     string `json:"store,omitempty"`
	MemBudget int64  `json:"mem_budget,omitempty"`
	Reduce    string `json:"reduce,omitempty"`
	Order     string `json:"order,omitempty"`

	PeerIndex int `json:"peer_index"`
	PeerCount int `json:"peer_count"`
}

type helloAckMsg struct {
	PeerIndex int `json:"peer_index"`
}

type depthMsg struct {
	Depth int `json:"depth"`
}

// levelMsg is a peer's post-EndLevel barrier report.
type levelMsg struct {
	Depth    int   `json:"depth"`
	Admitted int64 `json:"admitted"` // cumulative local admissions
	Next     int   `json:"next"`     // local next-frontier size
	Stop     bool  `json:"stop,omitempty"`
}

// contMsg is the coordinator's barrier verdict.
type contMsg struct {
	Depth     int  `json:"depth"`
	Keep      int  `json:"keep,omitempty"`
	Truncated bool `json:"truncated,omitempty"`
	Done      bool `json:"done,omitempty"`
}

// reseedMsg tags a freshly-helloed session as part of a re-seeded
// epoch: a fail-over aborted the previous session set and the run is
// restarting from the initial configuration on this one. Observability
// only — no state is grafted across epochs, which is exactly why the
// recovery is sound (the engine's verdict and visited set are
// invariant under peer count, so the restarted run reproduces the
// uninterrupted one).
type reseedMsg struct {
	Epoch int `json:"epoch"` // fail-over round (1 = first re-seed)
	Depth int `json:"depth"` // deepest level the aborted epoch had entered
}

// rangeMsg announces, per lost peer, that its contiguous partition
// range was re-spread over the surviving sessions: the pinned
// fingerprint->peer map applied at the new peer count re-seeds every
// partition the dead peer owned. Broadcast alongside reseedMsg, one
// per dropped slot; observability only.
type rangeMsg struct {
	Epoch int `json:"epoch"`
	Peer  int `json:"peer"`  // the lost slot's original peer index
	Depth int `json:"depth"` // deepest level the aborted epoch had entered
}

// resultMsg is a peer's final ExploreResult share.
type resultMsg struct {
	Visited     int   `json:"visited"`
	Complete    bool  `json:"complete"`
	Decided     []int `json:"decided,omitempty"`
	MaxTogether int   `json:"max_together,omitempty"`

	HasViol   bool   `json:"has_viol,omitempty"`
	ViolDepth int    `json:"viol_depth,omitempty"`
	ViolFP    uint64 `json:"viol_fp,omitempty"`
	ViolPath  []byte `json:"viol_path,omitempty"`

	// ValWits carries one replayable witness per decided value (the
	// peer's local minimum by depth then fingerprint) — the provenance
	// the coordinator needs to classify valency without re-exploring.
	ValWits []valWitnessMsg `json:"val_wits,omitempty"`

	Store     check.StoreStats     `json:"store"`
	Reduction check.ReductionStats `json:"reduction"`
	Async     check.AsyncStats     `json:"async"`
	Net       check.NetStats       `json:"net"`
}

// valWitnessMsg is the wire form of check.ValueWitness: a replayable
// minimal path deciding the named value.
type valWitnessMsg struct {
	Value int    `json:"value"`
	Depth int    `json:"depth"`
	FP    uint64 `json:"fp"`
	Path  []byte `json:"path,omitempty"`
}

type errorMsg struct {
	Msg string `json:"msg"`
}
