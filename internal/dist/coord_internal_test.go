package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
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
			ctrl <- ctrlMsg{peer: peer, kind: frameResult, payload: marshalCtrl(resultMsg{Visited: 10 + peer})}
			errc <- &PeerLostError{Peer: peer, Addr: slots[peer].addr, Err: io.EOF}
		}
		results, err := gatherResults(ctrl, errc, slots)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		for peer, r := range results {
			if r == nil || r.Visited != 10+peer {
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
		ctrl <- ctrlMsg{peer: 0, kind: frameResult, payload: marshalCtrl(resultMsg{})}
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
		next := func() (ctrlMsg, error) {
			if len(script) == 0 {
				return ctrlMsg{}, errors.New("script exhausted")
			}
			m := script[0]
			script = script[1:]
			return m, nil
		}
		err := runLevelControl(cps, Spec{Limits: check.ExploreLimits{MaxConfigs: 100}}, next)
		var pl *PeerLostError
		var fe *FrameError
		if !errors.As(err, &pl) || pl.Peer != 1 || !errors.As(err, &fe) {
			t.Errorf("report %+v: err = %v, want peer 1 lost to a *FrameError", bad, err)
		}
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
