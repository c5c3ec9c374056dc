package dist

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"

	"repro/internal/check"
	"repro/internal/model"
)

// ProtocolBuilder materializes the protocol instance a HELLO names.
// mcheck passes its registry (harness.BuildProtocol); loopback tests
// pass a closure returning the in-process instance.
type ProtocolBuilder func(name string, n, k, m int) (model.Protocol, error)

func marshalCtrl(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Control messages are plain structs of scalars; this cannot fail.
		panic(fmt.Sprintf("dist: marshaling control message: %v", err))
	}
	return b
}

func unmarshalCtrl(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return &FrameError{Reason: "control payload", Err: err}
	}
	return nil
}

// ServePeer accepts coordinator connections on ln and runs one
// exploration per connection (`mcheck -peer -listen=<addr>`). It
// returns when ln is closed or ctx is cancelled; each connection is
// served on its own goroutine, so a peer process can be reused across
// runs.
func ServePeer(ctx context.Context, ln net.Listener, build ProtocolBuilder) error {
	if ctx != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-ctx.Done():
				ln.Close()
			case <-done:
			}
		}()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("dist peer: accept: %w", err)
		}
		go ServePeerConn(ctx, conn, build)
	}
}

// ServePeerConn runs one exploration over an established coordinator
// connection: HELLO -> HELLOACK (or ERROR, for a spec this peer will not
// run) -> engine run with the link installed -> RESULT (or ERROR), the
// HELLO preceded by any number of PINGs, each answered with a PONG. It
// always closes conn.
func ServePeerConn(ctx context.Context, conn net.Conn, build ProtocolBuilder) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)

	t, payload, _, err := readFrame(br, nil)
	// A coordinator re-seeding after a peer loss probes a fresh session
	// before its HELLO: each PING is answered with a PONG.
	for err == nil && t == framePing {
		if _, err = conn.Write(appendFrame(nil, framePong, nil)); err == nil {
			t, payload, _, err = readFrame(br, nil)
		}
	}
	if err != nil || t != frameHello {
		return // nothing sensible to answer on a connection that cannot even say hello
	}
	var h helloMsg
	if err := unmarshalCtrl(payload, &h); err != nil {
		return
	}
	sendErr := func(err error) {
		f := appendFrame(nil, frameError, marshalCtrl(errorMsg{Msg: err.Error()}))
		conn.Write(f)
	}
	if h.PeerCount < 1 || h.PeerCount > check.DistNumParts || h.PeerIndex < 0 || h.PeerIndex >= h.PeerCount {
		sendErr(fmt.Errorf("dist peer: bad peer assignment %d/%d", h.PeerIndex, h.PeerCount))
		return
	}
	// The options are checked here, before HELLOACK, so a coordinator
	// asking for a setting this build does not run (an older one's
	// "order":"async", say) is refused at the handshake.
	opts := h.explore()
	if err := opts.Engine.Validate(true); err != nil {
		sendErr(err)
		return
	}
	p, err := build(h.Proto, h.N, h.K, h.M)
	if err != nil {
		sendErr(fmt.Errorf("dist peer: building protocol %q: %w", h.Proto, err))
		return
	}
	cfg, err := model.NewConfig(p, h.Inputs)
	if err != nil {
		sendErr(fmt.Errorf("dist peer: start configuration: %w", err))
		return
	}
	link := newPeerLink(conn, br, h.PeerIndex, h.PeerCount)
	defer link.close()
	if err := link.writeFrame(frameHelloAck, marshalCtrl(helloAckMsg{PeerIndex: h.PeerIndex})); err != nil {
		return
	}

	opts.Engine.Ctx, opts.Engine.Dist = ctx, link
	share, err := check.ExploreOptsShare(p, cfg, allPids(p), h.AgreeK, opts)
	if err != nil {
		sendErr(err)
		return
	}
	link.writeFrame(frameResult, marshalCtrl(share))
}

// allPids is every process of p: a distributed run explores them all.
func allPids(p model.Protocol) []int {
	pids := make([]int, p.NumProcesses())
	for i := range pids {
		pids[i] = i
	}
	return pids
}
