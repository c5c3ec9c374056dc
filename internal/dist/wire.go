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
// cuts the global budget from the per-peer survivor counts alone (peers
// own ascending fingerprint ranges, so the cut is a prefix sum). At the
// end each peer sends its share of the result (check.ExploreShare), and
// the coordinator merges the shares with check.ExploreMerge, which
// replays and re-classifies every witness path a share carries.
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
	// 3 is retired, not reusable: it was the successor batch whose records
	// carried each configuration's encoding instead of its slot hashes.
	frameExpanded frameType = 4 // peer -> coordinator: level expansion finished (JSON depthMsg)
	frameBarrier  frameType = 5 // coordinator -> peer: all peers expanded (JSON depthMsg)
	frameLevel    frameType = 6 // peer -> coordinator: post-EndLevel report (JSON levelMsg)
	// 7 and 8 are retired, not reusable: they were NEEDFPS and FPS, a
	// gather of every peer's sorted next-frontier fingerprints that the
	// LEVEL reports' counts make redundant.
	frameCont frameType = 9 // coordinator -> peer: barrier verdict (JSON contMsg)
	// 10-13 are retired, not reusable: they were the async order's
	// quiescence protocol (PROBE, PROBEREPLY, CLOSE, DONE), and a build
	// that still speaks it must get a typed error, not a misparse. 14 is
	// retired too: it was a RESULT of hand-listed fields, with a witness
	// path per decided value and one for the violation.
	frameError frameType = 15 // peer -> coordinator: run failed (JSON errorMsg)
	framePing  frameType = 16 // coordinator -> peer: liveness probe (empty)
	framePong  frameType = 17 // peer -> coordinator: liveness answer (empty)
	// 18 and 19 are retired, not reusable: they were RESEED and RANGE,
	// which announced a fail-over's new epoch to peers that recorded
	// the announcement and never read it.
	frameResult frameType = 20 // peer -> coordinator: final share (JSON check.ExploreShare)
	// 21 is retired, not reusable: it was the successor batch of builds
	// whose symmetry-quotiented fingerprints sorted class hashes, so a
	// peer of either build would claim the other's records under another
	// fingerprint.
	frameBatch frameType = 22 // peer -> coordinator -> peer: successor records
)

// frameTypeMax is the highest type number ever assigned, retired ones
// included.
const frameTypeMax = frameBatch

// checkFrameType rejects type bytes no frame of this protocol carries.
func checkFrameType(b byte) error {
	switch t := frameType(b); {
	case t == 0 || t > frameTypeMax:
		return &FrameError{Reason: fmt.Sprintf("unknown frame type %d", b)}
	case t == 3, t > frameLevel && t < frameCont, t > frameCont && t < frameError, t > framePong && t < frameResult, t > frameResult && t < frameBatch:
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
//	recs  count × node record (check.DecodeNodeRecord: the record the
//	      spill store spools, one layout for both — pid, depth,
//	      fingerprint, slot-hash vector, an empty key and the pid path;
//	      no configuration encoding)
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

// ---- control payloads (JSON) ----

// helloMsg is the run spec the coordinator hands each peer. One HELLO
// per connection; everything that shapes the explored space is pinned
// here so every peer provably checks the same instance. The limits and
// engine options are Spec.Explore itself, flattened into the frame by
// their own JSON tags (so a new EngineOptions field travels with no edit
// here, and the keys older builds send — max_configs, workers, store,
// mem_budget, reduce, order — stay put); the process-local fields (Ctx,
// Progress, Dist, SpillDir) do not travel. The peer runs the options as
// received, plus its own context and link, after checking them with
// check.EngineOptions.Validate before its HELLOACK.
type helloMsg struct {
	Proto  string `json:"proto"`
	N      int    `json:"n"`
	K      int    `json:"k"`
	M      int    `json:"m"`
	AgreeK int    `json:"agree_k"`
	Inputs []int  `json:"inputs"`

	check.ExploreLimits
	check.EngineOptions

	PeerIndex int `json:"peer_index"`
	PeerCount int `json:"peer_count"`
}

// explore is the options the HELLO carries.
func (h helloMsg) explore() check.ExploreOptions {
	return check.ExploreOptions{Limits: h.ExploreLimits, Engine: h.EngineOptions}
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
	Next     int   `json:"next"`     // surviving next-level admissions
	Stop     bool  `json:"stop,omitempty"`
}

// contMsg is the coordinator's barrier verdict.
type contMsg struct {
	Depth     int  `json:"depth"`
	Keep      int  `json:"keep,omitempty"`
	Truncated bool `json:"truncated,omitempty"`
	Done      bool `json:"done,omitempty"`
}

type errorMsg struct {
	Msg string `json:"msg"`
}
