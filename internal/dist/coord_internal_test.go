package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/model"
)

// TestGatherResultBeforeEOF: a peer's reader queues its RESULT on the
// control channel and then the EOF of the closed conn on the error
// channel, and the gather can find both ready at once. Whichever its
// select takes first, the EOF of a peer whose RESULT is queued is not a
// loss. The repeat count makes both orders certain to occur.
func TestGatherResultBeforeEOF(t *testing.T) {
	slots := []slotInfo{{addr: "a"}, {addr: "b"}}
	for i := 0; i < 200; i++ {
		ctrl := make(chan ctrlMsg, 4)
		errc := make(chan error, 4)
		for peer := range slots {
			ctrl <- ctrlMsg{peer: peer, kind: frameResult, payload: marshalCtrl(check.ExploreShare{RunStats: check.RunStats{Processed: 10 + peer}})}
			errc <- &PeerLostError{Peer: peer, Addr: slots[peer].addr, Err: io.EOF}
		}
		results, err := gatherResults(ctrl, errc, slots)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		for peer, r := range results {
			if r == nil || r.Processed != 10+peer {
				t.Fatalf("iteration %d: peer %d result = %+v", i, peer, r)
			}
		}
	}
}

// TestGatherLossWithoutResult: an EOF from a peer whose RESULT is not
// among the queued control frames is a loss of that peer, and a typed
// ERROR queued before the EOF is the error reported.
func TestGatherLossWithoutResult(t *testing.T) {
	slots := []slotInfo{{addr: "a"}, {addr: "b"}}
	for i := 0; i < 200; i++ {
		ctrl := make(chan ctrlMsg, 4)
		errc := make(chan error, 4)
		ctrl <- ctrlMsg{peer: 0, kind: frameResult, payload: marshalCtrl(check.ExploreShare{})}
		errc <- &PeerLostError{Peer: 1, Addr: "b", Err: io.EOF}
		_, err := gatherResults(ctrl, errc, slots)
		var pl *PeerLostError
		if !errors.As(err, &pl) || pl.Peer != 1 || !errors.Is(err, io.EOF) {
			t.Fatalf("iteration %d: err = %v, want peer 1 lost to EOF", i, err)
		}

		ctrl = make(chan ctrlMsg, 4)
		errc = make(chan error, 4)
		ctrl <- ctrlMsg{peer: 1, kind: frameError, payload: marshalCtrl(errorMsg{Msg: "boom"})}
		errc <- &PeerLostError{Peer: 1, Addr: "b", Err: io.EOF}
		_, err = gatherResults(ctrl, errc, slots)
		if !errors.As(err, &pl) || pl.Peer != 1 || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("iteration %d: err = %v, want peer 1's own error", i, err)
		}
	}
}

// TestDistPeerOfRanges pins the premise of the coordinator's budget cut:
// at every peer count the peers own contiguous, ascending, non-empty
// ranges of the partition space (so the global sorted-fingerprint order
// is peer 0's fingerprints, then peer 1's, ...), balanced to within one
// partition.
func TestDistPeerOfRanges(t *testing.T) {
	for peers := 1; peers <= check.DistNumParts; peers++ {
		sizes := make([]int, peers)
		prev := 0
		for part := 0; part < check.DistNumParts; part++ {
			owner := check.DistPeerOf(part, peers)
			if owner < prev || owner >= peers {
				t.Fatalf("%d peers: partition %d owned by peer %d after peer %d", peers, part, owner, prev)
			}
			prev = owner
			sizes[owner]++
		}
		lo, hi := sizes[0], sizes[0]
		for peer, n := range sizes {
			if n == 0 {
				t.Fatalf("%d peers: peer %d owns no partition", peers, peer)
			}
			lo, hi = min(lo, n), max(hi, n)
		}
		if hi-lo > 1 {
			t.Fatalf("%d peers: range sizes %v differ by more than 1", peers, sizes)
		}
	}
}

// TestBudgetKeep: the coordinator's cut keeps a prefix of the peers'
// survivors taken in peer order.
func TestBudgetKeep(t *testing.T) {
	for _, tc := range []struct {
		next      []int
		keepTotal int
		want      []int
	}{
		{[]int{3, 4, 5}, 0, []int{0, 0, 0}},
		{[]int{3, 4, 5}, 12, []int{3, 4, 5}},
		{[]int{3, 4, 5}, 20, []int{3, 4, 5}},
		{[]int{3, 4, 5}, 5, []int{3, 2, 0}},
		{[]int{3, 0, 5}, 3, []int{3, 0, 0}},
		{[]int{3, 0, 5}, 4, []int{3, 0, 1}},
		{[]int{7}, 4, []int{4}},
	} {
		if got := budgetKeep(tc.next, tc.keepTotal); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("budgetKeep(%v, %d) = %v, want %v", tc.next, tc.keepTotal, got, tc.want)
		}
	}
}

// discardConn swallows the coordinator's writes; runLevelControl writes
// and nothing else.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }

// scripted is runLevelControl's next over a fixed script of control
// frames.
func scripted(script []ctrlMsg) func() (ctrlMsg, error) {
	return func() (ctrlMsg, error) {
		if len(script) == 0 {
			return ctrlMsg{}, errors.New("script exhausted")
		}
		m := script[0]
		script = script[1:]
		return m, nil
	}
}

// TestLevelReportRejectsNegativeCounts: nothing cross-checks a peer's
// LEVEL report against its frontier any more, so a report with a negative
// count fails the run as a typed loss of that peer.
func TestLevelReportRejectsNegativeCounts(t *testing.T) {
	for _, bad := range []levelMsg{{Admitted: 5, Next: -1}, {Admitted: -1, Next: 2}} {
		cps := []*coordPeer{{conn: discardConn{}, addr: "a"}, {conn: discardConn{}, addr: "b"}}
		script := []ctrlMsg{
			{peer: 0, kind: frameExpanded, payload: marshalCtrl(depthMsg{})},
			{peer: 1, kind: frameExpanded, payload: marshalCtrl(depthMsg{})},
			{peer: 0, kind: frameLevel, payload: marshalCtrl(levelMsg{Admitted: 3, Next: 2})},
			{peer: 1, kind: frameLevel, payload: marshalCtrl(bad)},
		}
		err := runLevelControl(cps, Spec{Explore: check.ExploreOptions{Limits: check.ExploreLimits{MaxConfigs: 100}}}, scripted(script))
		var pl *PeerLostError
		var fe *FrameError
		if !errors.As(err, &pl) || pl.Peer != 1 || !errors.As(err, &fe) {
			t.Errorf("report %+v: err = %v, want peer 1 lost to a *FrameError", bad, err)
		}
	}
}

// TestLevelControlPeerError: a peer's ERROR at the expand barrier or at
// the level barrier fails the run as a loss of that peer carrying the
// peer's own message, not as a frame out of place; an ERROR whose
// payload does not decode still surfaces its *FrameError.
func TestLevelControlPeerError(t *testing.T) {
	boom := marshalCtrl(errorMsg{Msg: "peer 1 store: disk full"})
	expanded := ctrlMsg{peer: 0, kind: frameExpanded, payload: marshalCtrl(depthMsg{})}
	level := ctrlMsg{peer: 0, kind: frameLevel, payload: marshalCtrl(levelMsg{Admitted: 3, Next: 2})}
	for _, tc := range []struct {
		name   string
		script []ctrlMsg
	}{
		{"expand", []ctrlMsg{expanded, {peer: 1, kind: frameError, payload: boom}}},
		{"level", []ctrlMsg{expanded, {peer: 1, kind: frameExpanded, payload: marshalCtrl(depthMsg{})}, level, {peer: 1, kind: frameError, payload: boom}}},
		{"undecodable", []ctrlMsg{expanded, {peer: 1, kind: frameError, payload: []byte("{not json")}}},
	} {
		cps := []*coordPeer{{conn: discardConn{}, addr: "a"}, {conn: discardConn{}, addr: "b"}}
		err := runLevelControl(cps, Spec{Explore: check.ExploreOptions{Limits: check.ExploreLimits{MaxConfigs: 100}}}, scripted(tc.script))
		var pl *PeerLostError
		if !errors.As(err, &pl) || pl.Peer != 1 {
			t.Errorf("%s: err = %v, want peer 1 lost", tc.name, err)
			continue
		}
		var fe *FrameError
		if tc.name == "undecodable" {
			if !errors.As(err, &fe) {
				t.Errorf("%s: err = %v, want the payload's *FrameError", tc.name, err)
			}
		} else if !strings.Contains(err.Error(), "disk full") || errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want the peer's own message", tc.name, err)
		}
	}
}

// TestRefusalIsNotFailedOver: a peer that answers the HELLO with ERROR
// is alive and refusing the spec, so a fail-over run reports the refusal
// at once instead of re-seeding onto it.
func TestRefusalIsNotFailedOver(t *testing.T) {
	p, inputs := pairInstance()
	refuse := func(string, int, int, int) (model.Protocol, error) { return nil, errors.New("no such protocol here") }
	serve := func() net.Conn {
		c, s := net.Pipe()
		go ServePeerConn(context.Background(), s, refuse)
		return c
	}
	sessions := 0
	spec := Spec{Proto: p.Name(), AgreeK: 1, Inputs: inputs, Failover: true,
		NewSession: func(context.Context, int) (net.Conn, error) { sessions++; return serve(), nil }}
	_, err := Run(context.Background(), p, []net.Conn{serve(), serve()}, nil, spec)
	var pl *PeerLostError
	if !errors.As(err, &pl) || !errors.Is(err, ErrPeerRefused) || !strings.Contains(err.Error(), "no such protocol here") {
		t.Fatalf("err = %v, want the peer's refusal", err)
	}
	if sessions != 0 {
		t.Errorf("%d NewSession calls, want none: a refusal is not a death", sessions)
	}
}

// TestReseedCancelled: a cancelled context aborts a re-seed with its own
// error, drops no slot and closes the sessions acquired so far, whether
// the slots are redialled or handed out by Spec.NewSession.
func TestReseedCancelled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	slots := []slotInfo{{addr: closed, orig: 0}, {addr: closed, orig: 1}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := &failState{}
	if _, _, err := reseed(ctx, Spec{PeerRetries: 3}, slots, st); !errors.Is(err, context.Canceled) || st.peersLost != 0 {
		t.Errorf("redial: err = %v, peers lost %d; want context.Canceled and none lost", err, st.peersLost)
	}

	// Slot 0 gets a session and the context is cancelled while slot 1's
	// is being acquired.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var far net.Conn
	spec := Spec{PeerRetries: 3, NewSession: func(ctx context.Context, orig int) (net.Conn, error) {
		if orig == 0 {
			near, f := net.Pipe()
			far = f
			go func() { // answer the session probe, as a peer does
				if _, _, _, err := readFrame(f, nil); err == nil {
					f.Write(appendFrame(nil, framePong, nil))
				}
			}()
			return near, nil
		}
		cancel()
		return nil, fmt.Errorf("slot %d unreachable", orig)
	}}
	st = &failState{}
	if _, _, err := reseed(ctx, spec, slots, st); !errors.Is(err, context.Canceled) || st.peersLost != 0 {
		t.Errorf("new session: err = %v, peers lost %d; want context.Canceled and none lost", err, st.peersLost)
	}
	if _, err := far.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("slot 0's session still open after the aborted re-seed: read err = %v", err)
	}
}

// fakePeer plays one peer of a run over conn: it answers the HELLO with
// hello, a whole frame, and if that is a HELLOACK it reports one level
// that admits nothing new and answers the verdict with final, a whole
// frame.
func fakePeer(conn net.Conn, hello, final []byte) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	read := func() bool { _, _, _, err := readFrame(br, nil); return err == nil }
	write := func(b []byte) bool { _, err := conn.Write(b); return err == nil }
	_ = read() && write(hello) && frameType(hello[4]) == frameHelloAck && // HELLO, answered
		write(appendFrame(nil, frameExpanded, marshalCtrl(depthMsg{}))) && read() && // BARRIER
		write(appendFrame(nil, frameLevel, marshalCtrl(levelMsg{Admitted: 1}))) && read() && // CONT
		write(final)
}

// runFakePeers drives a coordinator over one fakePeer per final frame, on
// the pair-consensus instance below, every peer acknowledging the HELLO
// unless hello0 replaces peer 0's answer.
func runFakePeers(hello0 []byte, finals ...[]byte) (*check.ExploreResult, error) {
	conns := make([]net.Conn, len(finals))
	for i, final := range finals {
		near, far := net.Pipe()
		conns[i] = near
		hello := appendFrame(nil, frameHelloAck, marshalCtrl(helloAckMsg{PeerIndex: i}))
		if i == 0 && hello0 != nil {
			hello = hello0
		}
		go fakePeer(far, hello, final)
	}
	p, inputs := pairInstance()
	return Run(context.Background(), p, conns, nil, Spec{Inputs: inputs, AgreeK: 1, Explore: check.ExploreOptions{Limits: check.ExploreLimits{MaxConfigs: 100}}})
}

// pairInstance is a 3-process pair consensus with a violation at k = 1.
func pairInstance() (model.Protocol, []int) {
	return baseline.NewPairConsensus(2).WithProcesses(3), []int{0, 1, 1}
}

// TestMergeRefusesWitnessOutsideClass: a CRC-valid RESULT whose record
// names a witness path that reaches a configuration outside its class —
// a value's path to a configuration that does not decide the value, the
// violation's path to one deciding no more than k values — fails the run
// as a loss of the peer that sent it. The whole record, from either peer,
// is the verdict's evidence. A checkpoint resume refuses the same records
// (check's TestCheckpointRecordOutsideClass).
func TestMergeRefusesWitnessOutsideClass(t *testing.T) {
	p, inputs := pairInstance()
	start := model.MustNewConfig(p, inputs)
	whole, err := check.ExploreOptsShare(p, start, []int{0, 1, 2}, 1, check.ExploreOptions{Engine: check.EngineOptions{Workers: 1, Provenance: true}})
	if err != nil {
		t.Fatal(err)
	}
	result := func(rec check.ClassRecord) []byte {
		return appendFrame(nil, frameResult, marshalCtrl(check.ExploreShare{RunStats: check.RunStats{Processed: 7, Complete: true}, Record: rec}))
	}
	res, err := runFakePeers(nil, result(check.ClassRecord{}), result(whole.Record))
	if err != nil {
		t.Fatalf("the whole record: %v", err)
	}
	if !reflect.DeepEqual(res.DecidedValues, []int{0, 1}) || res.AgreementViolation == nil || res.Visited != 14 {
		t.Fatalf("the whole record merged to %+v", res)
	}

	at := func(class int) int {
		i := slices.IndexFunc(whole.Record.Classes, func(w check.ClassWitness) bool { return w.Class == class })
		if i < 0 {
			t.Fatalf("record %+v has no class %d", whole.Record, class)
		}
		return i
	}
	decides := func(class int) []int {
		cfg, err := model.Replay(p, start, whole.Record.Classes[at(class)].Path)
		if err != nil {
			t.Fatal(err)
		}
		return cfg.DecidedValues(p)
	}
	if d := decides(1); slices.Contains(d, 0) {
		t.Fatalf("value 1's witness decides %v", d)
	}
	if d := decides(0); len(d) > 1 {
		t.Fatalf("value 0's witness decides %v", d)
	}
	// edit gives class's witness the path of from's.
	edit := func(class, from int) check.ClassRecord {
		rec := whole.Record
		rec.Classes = slices.Clone(rec.Classes)
		w := rec.Classes[at(from)]
		w.Class = class
		rec.Classes[at(class)] = w
		return rec
	}
	for name, bad := range map[string]check.ClassRecord{
		"value-outside-class": edit(0, 1),
		"violation-within-k":  edit(math.MinInt, 0),
	} {
		_, err := runFakePeers(nil, result(check.ClassRecord{}), result(bad))
		var pl *PeerLostError
		if !errors.As(err, &pl) || pl.Peer != 1 || !strings.Contains(err.Error(), "outside") {
			t.Errorf("%s: err = %v, want peer 1 lost to a witness outside its class", name, err)
		}
	}
}

// TestPeerErrorUndecodable: an ERROR frame whose payload does not decode
// fails the run as a loss of its peer carrying the payload's *FrameError,
// at the handshake and after the last barrier alike.
func TestPeerErrorUndecodable(t *testing.T) {
	garbled := appendFrame(nil, frameError, []byte("{not json"))
	for _, tc := range []struct {
		name          string
		hello0, final []byte
	}{
		{"handshake", garbled, nil},
		{"result", nil, garbled},
	} {
		_, err := runFakePeers(tc.hello0, tc.final)
		var pl *PeerLostError
		var fe *FrameError
		if !errors.As(err, &pl) || pl.Peer != 0 || !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want peer 0 lost to a *FrameError", tc.name, err)
		}
	}
}
