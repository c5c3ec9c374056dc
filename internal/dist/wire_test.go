package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
)

// --- Frame codec: the corruption contract ---
//
// The wire layer's promise (the distributed analogue of the spill
// store's RAF1 discipline) is that corrupt bytes can never decode into
// a wrong admit: every truncation, bit flip, or length overflow
// surfaces as a typed *FrameError (or a short-read io error at the
// stream layer), never as a panic and never as a frame with different
// contents. FuzzWireFrame drives arbitrary bytes through the pure
// decoder; the deterministic tests below pin the specific corruption
// classes the issue names.

// testRecords is what testRecordBytes must decode to.
func testRecords() []check.NodeRecord {
	return []check.NodeRecord{
		{Pid: 0, Depth: 1, FP: 0xdeadbeefcafe, Slots: slotBytes(7, 0x0123456789abcdef), Key: []byte{}, Path: []byte{0}},
		{Pid: 3, Depth: 12, FP: ^uint64(0), Slots: slotBytes(^uint64(1), 0, 1<<63), Key: []byte("exact-key"), Path: []byte{0, 1, 2, 3, 2, 1}},
		{Pid: 255, Depth: 0, FP: 1, Slots: slotBytes(), Key: []byte{}, Path: []byte{9}},
	}
}

// slotBytes is a slot-hash vector as a record holds it.
func slotBytes(hs ...uint64) []byte {
	b := []byte{}
	for _, h := range hs {
		b = binary.LittleEndian.AppendUint64(b, h)
	}
	return b
}

// testRecordBytes is testRecords in the record layout, written out: the
// wire layout is pinned to these bytes.
func testRecordBytes() []byte {
	b, err := hex.DecodeString("0101fecaefbeadde0000020700000000000000efcdab8967452301000100" +
		"040cffffffffffffffff03feffffffffffffff000000000000000000000000000000800965786163742d6b657906000102030201" +
		"800200010000000000000000000109")
	if err != nil {
		panic(err)
	}
	return b
}

func seedFrames() [][]byte {
	batch := append(appendBatchHeader(nil, 1, 0, len(testRecords())), testRecordBytes()...)
	return [][]byte{
		appendFrame(nil, frameHello, marshalCtrl(helloMsg{Proto: "algorithm1", N: 4, K: 1, M: 2, Inputs: []int{0, 1, 1, 0}, PeerCount: 2})),
		appendFrame(nil, frameHelloAck, marshalCtrl(helloAckMsg{PeerIndex: 1})),
		appendFrame(nil, frameBatch, batch),
		appendFrame(nil, frameExpanded, marshalCtrl(depthMsg{Depth: 3})),
		appendFrame(nil, frameLevel, marshalCtrl(levelMsg{Depth: 3, Admitted: 512, Next: 40})),
		appendFrame(nil, frameLevel, marshalCtrl(levelMsg{Depth: 4, Admitted: 512, Stop: true})),
		appendFrame(nil, frameCont, marshalCtrl(contMsg{Depth: 3, Keep: 17, Truncated: true})),
		appendFrame(nil, frameBarrier, marshalCtrl(depthMsg{Depth: 3})),
		appendFrame(nil, frameCont, marshalCtrl(contMsg{Depth: 4, Done: true})),
		appendFrame(nil, frameError, marshalCtrl(errorMsg{Msg: "boom"})),
		appendFrame(nil, framePing, nil),
		appendFrame(nil, framePong, nil),
		appendFrame(nil, frameResult, marshalCtrl(check.ExploreShare{RunStats: check.RunStats{Processed: 99, Complete: true}, Record: check.ClassRecord{
			Classes: []check.ClassWitness{{Class: math.MinInt, Depth: 4, FP: 0xf00d, Path: []byte{1, 0, 2, 1}}, {Class: 0, Depth: 2, FP: 0xbeef, Path: []byte{0, 1}},
				{Class: 1, Depth: 3, FP: 0xcafe, Path: []byte{1, 0, 1}}},
			MaxTogether: 2}})),
	}
}

// FuzzWireFrame: arbitrary bytes through decodeFrame never panic; a
// failure is always a typed *FrameError; a success re-encodes to a
// frame that decodes to the identical type and payload. When the frame
// carries a binary sub-payload (a batch), that decoder is held to the
// same contract.
func FuzzWireFrame(f *testing.F) {
	for _, fr := range seedFrames() {
		f.Add(fr)
		// Truncations and single-byte corruption of valid frames as
		// explicit seeds so the corpus starts on the interesting edges.
		f.Add(fr[:len(fr)-1])
		f.Add(fr[:frameHeaderLen/2])
		flipped := append([]byte(nil), fr...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	over := append([]byte(frameMagic), byte(frameBatch), 0, 0, 0)
	over = binary.LittleEndian.AppendUint32(over, maxFramePayload+1)
	f.Add(over)

	f.Fuzz(func(t *testing.T, b []byte) {
		ft, payload, rest, err := decodeFrame(b)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("decodeFrame error is %T (%v), want *FrameError", err, err)
			}
			return
		}
		if len(rest) > len(b) {
			t.Fatalf("decodeFrame returned more rest (%d) than input (%d)", len(rest), len(b))
		}
		re := appendFrame(nil, ft, payload)
		rt, rp, rr, rerr := decodeFrame(re)
		if rerr != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", rerr)
		}
		if rt != ft || !bytes.Equal(rp, payload) || len(rr) != 0 {
			t.Fatalf("re-encode round trip mismatch: type %d/%d, payload %d/%d bytes", ft, rt, len(payload), len(rp))
		}
		switch ft {
		case frameBatch:
			if _, _, _, berr := decodeBatch(payload); berr != nil {
				var fe *FrameError
				if !errors.As(berr, &fe) {
					t.Fatalf("decodeBatch error is %T, want *FrameError", berr)
				}
			}
		}
	})
}

// TestWireFrameBitFlips: flipping any single bit of a valid frame must
// be detected (CRC32 catches all burst errors up to 32 bits, so a
// single flip can never survive). This is exhaustive over every bit of
// every seed frame.
func TestWireFrameBitFlips(t *testing.T) {
	for fi, fr := range seedFrames() {
		for i := range fr {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), fr...)
				mut[i] ^= 1 << bit
				_, _, _, err := decodeFrame(mut)
				if err == nil {
					t.Fatalf("seed %d: flipping bit %d of byte %d went undetected", fi, bit, i)
				}
				var fe *FrameError
				if !errors.As(err, &fe) {
					t.Fatalf("seed %d: bit flip error is %T, want *FrameError", fi, err)
				}
			}
		}
	}
}

// TestWireFrameTruncation: every proper prefix of a valid frame fails
// typed, through both the pure decoder and the stream reader (where a
// clean header-boundary cut is the io.EOF a closed connection shows).
func TestWireFrameTruncation(t *testing.T) {
	for fi, fr := range seedFrames() {
		for n := 0; n < len(fr); n++ {
			_, _, _, err := decodeFrame(fr[:n])
			if err == nil {
				t.Fatalf("seed %d: %d-byte prefix decoded", fi, n)
			}
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("seed %d truncated to %d: error is %T, want *FrameError", fi, n, err)
			}

			_, _, _, rerr := readFrame(bytes.NewReader(fr[:n]), nil)
			if rerr == nil {
				t.Fatalf("seed %d: readFrame accepted %d-byte prefix", fi, n)
			}
			if !errors.As(rerr, &fe) && !errors.Is(rerr, io.EOF) && !errors.Is(rerr, io.ErrUnexpectedEOF) {
				t.Fatalf("seed %d truncated to %d: readFrame error is %T (%v)", fi, n, rerr, rerr)
			}
		}
	}
}

// TestWireFrameLengthOverflow: a length field past the frame cap is
// rejected before any allocation, by both decoders.
func TestWireFrameLengthOverflow(t *testing.T) {
	hdr := append([]byte(frameMagic), byte(frameBatch), 0, 0, 0)
	for _, n := range []uint32{maxFramePayload + 1, 1 << 30, ^uint32(0)} {
		b := binary.LittleEndian.AppendUint32(append([]byte(nil), hdr...), n)
		b = append(b, make([]byte, 64)...) // some trailing junk
		var fe *FrameError
		if _, _, _, err := decodeFrame(b); !errors.As(err, &fe) {
			t.Fatalf("length %d: decodeFrame error %v, want *FrameError", n, err)
		}
		if _, _, _, err := readFrame(bytes.NewReader(b), nil); !errors.As(err, &fe) {
			t.Fatalf("length %d: readFrame error %v, want *FrameError", n, err)
		}
	}
}

// TestWireRetiredFrameTypes: type 3 carried successor batches whose
// records held each configuration's encoding, until records carried slot
// hashes instead (type 21), and 21 carried them until symmetry-quotiented
// fingerprints became class-sum hashes (type 22); types 7-8 carried the budget cut's
// fingerprint gather (NEEDFPS, FPS) until the cut became a prefix sum
// over the LEVEL reports' counts; 10-13 carried the async order's
// quiescence protocol (PROBE, PROBEREPLY, CLOSE, DONE) until the mode
// table took async x distributed away; 14 carried a RESULT of
// hand-listed fields until the share became check's class record (type
// 20); 18-19 carried fail-over's RESEED/RANGE announcements, which no
// peer acted on. The numbers stay reserved: a well-formed frame of one
// of them, from a build that still speaks that protocol, is refused
// typed by both decoders instead of being read as something else.
func TestWireRetiredFrameTypes(t *testing.T) {
	for _, typ := range []frameType{3, 7, 8, 10, 11, 12, 13, 14, 18, 19, 21} {
		fr := appendFrame(nil, typ, []byte(`{"seq":1}`))
		_, _, _, derr := decodeFrame(fr)
		_, _, _, rerr := readFrame(bytes.NewReader(fr), nil)
		for _, err := range []error{derr, rerr} {
			var fe *FrameError
			if !errors.As(err, &fe) || !strings.Contains(fe.Reason, "retired frame type") {
				t.Errorf("type %d: error = %v, want a retired-frame-type *FrameError", typ, err)
			}
		}
	}
	if frameLevel != 6 || frameCont != 9 || frameResult != 20 || framePong != 17 || frameBatch != 22 {
		t.Errorf("live frame types moved: LEVEL = %d, CONT = %d, RESULT = %d, PONG = %d, BATCH = %d; wire numbers are never reassigned",
			frameLevel, frameCont, frameResult, framePong, frameBatch)
	}
}

// TestWireBatchCountOverflow: a batch claiming more records than its
// payload could hold is rejected without sizing an allocation from the
// corrupt count.
func TestWireBatchCountOverflow(t *testing.T) {
	b := appendBatchHeader(nil, 1, 0, 1<<30)
	b = append(b, make([]byte, 100)...)
	var fe *FrameError
	if _, _, _, err := decodeBatch(b); !errors.As(err, &fe) {
		t.Fatalf("decodeBatch error %v, want *FrameError", err)
	}
}

func TestWireBatchRoundTrip(t *testing.T) {
	want := testRecords()
	b := append(appendBatchHeader(nil, 2, 1, len(want)), testRecordBytes()...)
	dest, src, recs, err := decodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if dest != 2 || src != 1 {
		t.Fatalf("dest/src = %d/%d, want 2/1", dest, src)
	}
	var got []check.NodeRecord
	for len(recs) > 0 {
		var rec check.NodeRecord
		if rec, recs, err = check.DecodeNodeRecord(recs); err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if _, _, _, err := decodeBatch(append(b, 0)); err == nil {
		t.Fatal("trailing byte after records went undetected")
	}
}

// TestWireBatchCorruption holds the record block of a batch to the frame
// layer's contract: decodeBatch is what stands between a payload and the
// engine, so every truncation and every single-bit flip of a batch either
// fails with a typed *FrameError or still is count whole records, never a
// panic. (The frame CRC catches all of these first; this is the layer
// under it.)
func TestWireBatchCorruption(t *testing.T) {
	b := append(appendBatchHeader(nil, 1, 0, len(testRecords())), testRecordBytes()...)
	probe := func(what string, mut []byte) {
		t.Helper()
		_, _, recs, err := decodeBatch(mut)
		var fe *FrameError
		if err != nil && !errors.As(err, &fe) {
			t.Fatalf("%s: error is %T (%v), want *FrameError", what, err, err)
		}
		if err == nil && len(recs) != len(mut)-batchHeaderLen {
			t.Fatalf("%s: accepted %d record bytes of %d", what, len(recs), len(mut)-batchHeaderLen)
		}
	}
	for n := 0; n < len(b); n++ {
		if _, _, _, err := decodeBatch(b[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte batch decoded", n, len(b))
		}
		probe(fmt.Sprintf("prefix %d", n), b[:n])
	}
	for i := range b {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), b...)
			mut[i] ^= 1 << bit
			probe(fmt.Sprintf("byte %d bit %d", i, bit), mut)
		}
	}
}

// TestWireStreamReuse: readFrame's buffer-reuse path decodes a back-to-
// back stream of differently-sized frames correctly.
func TestWireStreamReuse(t *testing.T) {
	frames := seedFrames()
	var stream []byte
	for _, fr := range frames {
		stream = append(stream, fr...)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i := range frames {
		var (
			ft      frameType
			payload []byte
			err     error
		)
		ft, payload, buf, err = readFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		wt, wp, _, _ := decodeFrame(frames[i])
		if ft != wt || !bytes.Equal(payload, wp) {
			t.Fatalf("frame %d: type %d/%d, payload mismatch", i, ft, wt)
		}
	}
	if _, _, _, err := readFrame(r, buf); !errors.Is(err, io.EOF) {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
}

// TestHelloFromOlderCoordinator: a HELLO written before the
// partition-count knob was retired still carries it; the peer decodes the
// run spec and ignores the field.
func TestHelloFromOlderCoordinator(t *testing.T) {
	var h helloMsg
	old := []byte(`{"proto":"algorithm1","n":4,"k":1,"m":2,"agree_k":1,"inputs":[0,1,1,0],"max_configs":1000,"workers":2,"shards":8,"order":"levelsync","peer_index":1,"peer_count":2}`)
	if err := unmarshalCtrl(old, &h); err != nil {
		t.Fatalf("older coordinator's HELLO rejected: %v", err)
	}
	if h.Proto != "algorithm1" || h.Workers != 2 || h.Order != check.OrderLevelSync || h.PeerIndex != 1 || h.PeerCount != 2 {
		t.Errorf("decoded %+v", h)
	}
}

// TestHelloCarriesExploreOptions: every exported field of
// check.ExploreOptions that is not process-local (json:"-"), set to a
// non-zero value on the coordinator, reaches the options a peer decodes
// from its HELLO unchanged. The fields are found by reflection, so a new
// one needs no edit here or in the codec. The keys older builds send
// and read stay those of the flat HELLO.
func TestHelloCarriesExploreOptions(t *testing.T) {
	var want check.ExploreOptions
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, sf := v.Field(i), v.Type().Field(i)
			if !sf.IsExported() || sf.Tag.Get("json") == "-" {
				continue
			}
			n++
			switch f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(int64(n))
			case reflect.String:
				f.SetString(fmt.Sprintf("%s-%d", sf.Name, n))
			default:
				t.Fatalf("field %s of kind %s: teach this test a non-zero value for it", sf.Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&want).Elem())

	payload := marshalCtrl(Spec{Explore: want}.hello(0, 1))
	var h helloMsg
	if err := unmarshalCtrl(payload, &h); err != nil {
		t.Fatal(err)
	}
	if got := h.explore(); !reflect.DeepEqual(got, want) {
		t.Errorf("peer options %+v, coordinator sent %+v", got, want)
	}
	for _, key := range []string{"max_configs", "max_depth", "workers", "store", "mem_budget", "reduce", "order"} {
		if !bytes.Contains(payload, []byte(`"`+key+`":`)) {
			t.Errorf("HELLO %s has no %q key", payload, key)
		}
	}
}

// TestAsyncHelloRefusedAtHandshake: a coordinator built before async x
// distributed became a mode conflict can still ask for it. The peer
// answers the HELLO with a typed ERROR carrying the mode-table message,
// never a HELLOACK, and a coordinator that gets that far reports it as
// the peer rejecting the spec.
func TestAsyncHelloRefusedAtHandshake(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	build := func(string, int, int, int) (model.Protocol, error) { return p, nil }
	serve := func() net.Conn {
		c, s := net.Pipe()
		go ServePeerConn(context.Background(), s, build)
		return c
	}

	c := serve()
	defer c.Close()
	hello := `{"proto":"algorithm1","n":4,"k":1,"m":2,"agree_k":1,"inputs":[0,1,1,0],"max_configs":1000,"workers":2,"order":"async","peer_index":0,"peer_count":1}`
	go c.Write(appendFrame(nil, frameHello, []byte(hello)))
	ft, payload, _, err := readFrame(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	var em errorMsg
	if ft != frameError || unmarshalCtrl(payload, &em) != nil || !strings.Contains(em.Msg, check.ErrIncompatibleModes.Error()) {
		t.Fatalf("peer answered frame type %d %q, want ERROR naming %q", ft, payload, check.ErrIncompatibleModes)
	}

	// runEpoch is Run past its own Validate call: what an older
	// coordinator, whose table lacks the row, goes on to do.
	spec := Spec{Proto: p.Name(), AgreeK: 1, Inputs: []int{0, 1, 1, 0}, Explore: check.ExploreOptions{
		Limits: check.ExploreLimits{MaxConfigs: 1000}, Engine: check.EngineOptions{Order: check.OrderAsync}}}
	_, err = runEpoch(context.Background(), p, []net.Conn{serve()}, []slotInfo{{addr: "pipe-0"}}, spec, &failState{})
	var pl *PeerLostError
	if !errors.As(err, &pl) || !strings.Contains(err.Error(), "peer rejected spec") || !strings.Contains(err.Error(), check.ErrIncompatibleModes.Error()) {
		t.Fatalf("coordinator error = %v, want the peer's rejection of the spec", err)
	}
}
