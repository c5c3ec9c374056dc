package dist

import (
	"errors"
	"io"
	"strings"
	"testing"
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
