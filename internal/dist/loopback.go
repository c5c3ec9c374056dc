package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/model"
)

// LoopbackExplore runs a distributed exploration entirely in-process:
// one ServePeerConn goroutine per peer over a net.Pipe, driven by the
// normal coordinator. It is the sweep/bench integration point (engine
// spec `peers=N`) and the backbone of the differential parity suite —
// same wire protocol as TCP, zero sockets.
func LoopbackExplore(ctx context.Context, p model.Protocol, inputs []int, agreeK int, opts check.ExploreOptions, peers int) (*check.ExploreResult, error) {
	return LoopbackExploreOpts(ctx, p, inputs, agreeK, opts, LoopbackOptions{Peers: peers})
}

// LoopbackOptions extends the loopback harness with scripted peer
// death: the coordinator-side connection to KillPeer is severed after
// KillAfterWrites coordinator frame writes to it, which lands the loss
// at an exact protocol position — sweeping the count covers handshake,
// expand barriers, level barriers (the budget cut among them) and result
// delivery. With Failover
// set the run must recover; Respawn decides whether the killed slot
// comes back (a restarted process) or stays dead (degraded mode on the
// survivors).
type LoopbackOptions struct {
	Peers int

	// Failover, Heartbeat, PeerRetries mirror the Spec fields.
	Failover    bool
	Heartbeat   time.Duration
	PeerRetries int

	// KillPeer / KillAfterWrites: sever the connection to peer KillPeer
	// after that many coordinator-side frame writes to it. KillAfterWrites
	// < 0 (or Kill == false) disables the script. The kill fires once, in
	// the original epoch only.
	Kill            bool
	KillPeer        int
	KillAfterWrites int

	// Respawn: on re-seed, every slot (including the killed one) gets a
	// fresh in-process peer. False leaves the killed slot dead, so the
	// run degrades to the surviving peers.
	Respawn bool

	// WrapPeerConn, when set, wraps each peer-side conn before it is
	// served — the latency-injection hook for the heartbeat
	// false-positive test.
	WrapPeerConn func(peer int, c net.Conn) net.Conn
}

// killConn severs a connection after a scripted number of writes: the
// Nth write closes the underlying conn and fails, and everything after
// it fails too — indistinguishable, from both endpoints, from the peer
// process dying at that instant.
type killConn struct {
	net.Conn
	writes  atomic.Int64
	after   int64
	tripped atomic.Bool
}

func (k *killConn) Write(b []byte) (int, error) {
	if k.writes.Add(1) > k.after && k.tripped.CompareAndSwap(false, true) {
		k.Conn.Close()
	}
	if k.tripped.Load() {
		return 0, errors.New("loopback: scripted peer kill")
	}
	return k.Conn.Write(b)
}

// LoopbackExploreOpts is LoopbackExplore with fail-over scripting. opts
// is the run's Spec.Explore, so Run checks it before any peer is asked
// to run it: engine options a distributed run cannot honour (StringKeys,
// Provenance, Checkpoint) are rejected with check.ErrIncompatibleModes,
// not dropped.
func LoopbackExploreOpts(ctx context.Context, p model.Protocol, inputs []int, agreeK int, opts check.ExploreOptions, lo LoopbackOptions) (*check.ExploreResult, error) {
	peers := lo.Peers
	if peers < 1 {
		return nil, fmt.Errorf("dist: loopback peer count %d", peers)
	}
	var wg sync.WaitGroup
	builder := func(string, int, int, int) (model.Protocol, error) { return p, nil }
	spawn := func(peer int) net.Conn {
		c, s := net.Pipe()
		if lo.WrapPeerConn != nil {
			s = lo.WrapPeerConn(peer, s)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ServePeerConn(ctx, s, builder)
		}()
		return c
	}

	conns := make([]net.Conn, peers)
	addrs := make([]string, peers)
	for i := 0; i < peers; i++ {
		conns[i] = spawn(i)
		addrs[i] = fmt.Sprintf("loopback-%d", i)
		if lo.Kill && i == lo.KillPeer && lo.KillAfterWrites >= 0 {
			conns[i] = &killConn{Conn: conns[i], after: int64(lo.KillAfterWrites)}
		}
	}
	spec := Spec{
		Proto:   p.Name(),
		AgreeK:  agreeK,
		Inputs:  inputs,
		Explore: opts,

		Failover:    lo.Failover,
		Heartbeat:   lo.Heartbeat,
		PeerRetries: lo.PeerRetries,
	}
	if lo.Failover {
		spec.NewSession = func(_ context.Context, orig int) (net.Conn, error) {
			if !lo.Respawn && lo.Kill && orig == lo.KillPeer {
				return nil, errors.New("loopback: peer stays dead")
			}
			return spawn(orig), nil
		}
	}
	res, err := Run(ctx, p, conns, addrs, spec)
	// Run closes every conn on all paths, so the servers always exit.
	wg.Wait()
	return res, err
}
