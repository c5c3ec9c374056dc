package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/retry"
)

// PeerLostError reports a peer connection failing (or misbehaving)
// mid-run. Without fail-over the coordinator fails fast — it closes
// every peer link and returns one of these instead of hanging on a
// barrier a dead peer can never reach. With Spec.Failover set, the
// error becomes the trigger for a re-seed instead of the verdict.
type PeerLostError struct {
	Peer int
	Addr string
	Err  error
}

func (e *PeerLostError) Error() string {
	return fmt.Sprintf("dist: peer %d (%s) lost: %v", e.Peer, e.Addr, e.Err)
}

func (e *PeerLostError) Unwrap() error { return e.Err }

// Spec is the run a coordinator drives: the protocol instance (by
// registry name plus parameters, so every peer builds the same one),
// the start configuration's inputs, and the engine knobs each peer
// applies locally.
type Spec struct {
	Proto   string
	N, K, M int
	AgreeK  int
	Inputs  []int

	Limits check.ExploreLimits

	Workers   int
	Store     string
	MemBudget int64
	Reduce    string
	Order     string

	// Failover enables degraded-mode recovery: on confirmed peer death
	// the coordinator re-seeds the run onto fresh sessions (redialing
	// every slot with backoff, dropping the unreachable ones) instead
	// of failing fast. Soundness is never traded for availability — the
	// re-seeded run restarts exploration from the initial configuration
	// on the surviving peers, and the engine's verdict and visited set
	// are invariant under peer count, so the recovered result is
	// byte-identical to an uninterrupted run.
	Failover bool

	// Heartbeat is the liveness-probe period. 0 means heartbeats are
	// off unless Failover is set, in which case they default to 1s. A
	// peer whose link answers no ping for 4 consecutive periods is
	// declared dead (its conn is closed, which funnels the loss through
	// the normal detection path). Links answer pings from a dedicated
	// reader, so a busy — even a compute-saturated — peer is never
	// declared dead by mistake; only a vanished or wedged process is.
	Heartbeat time.Duration

	// PeerRetries caps connection attempts per peer slot per dial or
	// re-seed round (0 = 3 with Failover, else 1). Attempts beyond the
	// first wait out a shared jittered-exponential backoff schedule.
	PeerRetries int

	// NewSession, when set, acquires a replacement connection for a
	// peer slot during a re-seed instead of redialing its address —
	// the loopback harness uses it to respawn in-process peers. The
	// argument is the slot's original peer index. Returning an error
	// (after PeerRetries attempts) drops the slot for good.
	NewSession func(ctx context.Context, origIndex int) (net.Conn, error)

	// Logf, when set, receives fail-over progress lines (peer losses,
	// re-seed outcomes) — recovery should be visible, not silent.
	Logf func(format string, args ...any)
}

func (s Spec) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// peerAttempts resolves PeerRetries to an attempt count.
func (s Spec) peerAttempts() int {
	if s.PeerRetries >= 1 {
		return s.PeerRetries
	}
	if s.Failover {
		return 3
	}
	return 1
}

// heartbeatEvery resolves the probe period (0 = heartbeats off).
func (s Spec) heartbeatEvery() time.Duration {
	if s.Heartbeat > 0 {
		return s.Heartbeat
	}
	if s.Failover {
		return time.Second
	}
	return 0
}

// hbDeadlineFactor: a peer is dead after this many silent periods.
const hbDeadlineFactor = 4

// coordPeer is the coordinator's per-peer connection state.
type coordPeer struct {
	conn net.Conn
	br   *bufio.Reader
	addr string

	wmu  sync.Mutex
	wbuf []byte

	lastPong  atomic.Int64 // UnixNano of the latest PONG (or link creation)
	hbExpired atomic.Bool  // the heartbeat monitor closed this conn
}

func (cp *coordPeer) writeFrame(t frameType, payload []byte) error {
	cp.wmu.Lock()
	defer cp.wmu.Unlock()
	cp.wbuf = appendFrame(cp.wbuf[:0], t, payload)
	_, err := cp.conn.Write(cp.wbuf)
	return err
}

// ctrlMsg is one control frame routed from a peer reader to the
// coordinator's state machine.
type ctrlMsg struct {
	peer    int
	kind    frameType
	payload []byte
}

// slotInfo tracks one peer slot across re-seeds: its dial address and
// the peer index it held in the original (epoch-0) session set, which
// is how the loopback harness and RANGE announcements name it even
// after surviving slots have been re-indexed.
type slotInfo struct {
	addr string
	orig int
}

// failState accumulates fail-over bookkeeping across epochs.
type failState struct {
	rounds      int   // completed fail-over rounds
	peersLost   int64 // slots dropped for good
	reseeded    int64 // partitions re-seeded (whole map per round)
	retries     int64 // re-seed connection attempts beyond the first
	lastDepth   int64 // deepest level the aborted epoch had entered
	droppedLast []int // original indexes dropped in the latest round
}

// Dial connects to each peer address and runs spec across them,
// returning the merged result. With Failover (or PeerRetries > 1) each
// dial retries with jittered-exponential backoff before giving up.
func Dial(ctx context.Context, p model.Protocol, addrs []string, spec Spec) (*check.ExploreResult, error) {
	pol := retry.Policy{MaxAttempts: spec.peerAttempts()}
	conns := make([]net.Conn, len(addrs))
	for i, addr := range addrs {
		conn, err := dialRetry(ctx, addr, pol, nil)
		if err != nil {
			for _, c := range conns[:i] {
				if c != nil {
					c.Close()
				}
			}
			return nil, &PeerLostError{Peer: i, Addr: addr, Err: err}
		}
		conns[i] = conn
	}
	return Run(ctx, p, conns, addrs, spec)
}

// dialRetry dials addr up to pol.Attempts() times, waiting out the
// policy's backoff between attempts. retries, when non-nil, counts the
// attempts beyond the first.
func dialRetry(ctx context.Context, addr string, pol retry.Policy, retries *int64) (net.Conn, error) {
	var d net.Dialer
	var lastErr error
	for a := 0; a < pol.Attempts(); a++ {
		if a > 0 {
			if retries != nil {
				*retries++
			}
			if err := sleepCtx(ctx, pol.Backoff(a-1)); err != nil {
				return nil, err
			}
		}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run drives one distributed exploration over established peer
// connections (one per peer, in peer-index order; addrs are labels for
// errors). It owns the conns and closes them before returning. p is
// used coordinator-side only to replay the merged violation and value
// witnesses.
//
// The verdict contract is the heart of the protocol: for any peer
// count, Run's result has the same Visited count, Complete flag,
// decided-value set and violation identity (depth, fingerprint) as the
// single-process engine with the same spec — the differential suite in
// dist_test.go pins this per protocol, reduction and store, on spaces
// that fit their budget and on ones the budget cuts.
//
// With spec.Failover, that same invariance is what makes recovery
// sound: a confirmed peer death aborts the epoch, the coordinator
// re-acquires a session per reachable slot (dropping the rest), and
// the exploration restarts from the initial configuration on the
// survivors. No partial state crosses epochs, so nothing lost in
// flight can corrupt the verdict — the recovered run is the
// uninterrupted run with a smaller peer count.
func Run(ctx context.Context, p model.Protocol, conns []net.Conn, addrs []string, spec Spec) (*check.ExploreResult, error) {
	peers := len(conns)
	err := check.Modes{Order: spec.Order, Reduction: spec.Reduce, Store: spec.Store, Dist: true}.Validate()
	if err == nil && (peers < 1 || peers > check.DistNumParts) {
		err = fmt.Errorf("dist: peer count %d outside [1, %d]", peers, check.DistNumParts)
	}
	if err != nil {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	spec.Limits = withLimitDefaults(spec.Limits)

	slots := make([]slotInfo, peers)
	for i, conn := range conns {
		addr := ""
		if i < len(addrs) {
			addr = addrs[i]
		} else if ra := conn.RemoteAddr(); ra != nil {
			addr = ra.String()
		}
		slots[i] = slotInfo{addr: addr, orig: i}
	}

	st := &failState{}
	// Each round either drops a slot or burns one of a flapping slot's
	// rounds; this bound keeps a pathological network from re-seeding
	// forever while allowing every slot its full retry allowance.
	maxRounds := peers * spec.peerAttempts()
	for {
		res, err := runEpoch(ctx, p, conns, slots, spec, st)
		if err == nil {
			return res, nil
		}
		var pl *PeerLostError
		if !spec.Failover || !errors.As(err, &pl) {
			return nil, err
		}
		if ctx != nil && ctx.Err() != nil {
			return nil, err
		}
		if st.rounds >= maxRounds {
			return nil, fmt.Errorf("dist: giving up after %d fail-overs: %w", st.rounds, err)
		}
		st.rounds++
		spec.logf("%v; re-seeding (round %d)", pl, st.rounds)
		fault.Crash(fault.CrashDistReseed)
		conns, slots, err = reseed(ctx, spec, slots, st)
		if err != nil {
			return nil, fmt.Errorf("dist: fail-over after %v: %w", pl, err)
		}
		spec.logf("dist: re-seeded onto %d peers (%d dropped)", len(conns), len(st.droppedLast))
	}
}

// reseed acquires a fresh session per slot — via spec.NewSession when
// set, else by redialing the slot's address — with the shared backoff
// policy. Slots that stay unreachable are dropped (their partitions
// re-spread over the survivors by the pinned fingerprint->peer map at
// the new peer count). At least one slot must survive.
func reseed(ctx context.Context, spec Spec, slots []slotInfo, st *failState) ([]net.Conn, []slotInfo, error) {
	pol := retry.Policy{MaxAttempts: spec.peerAttempts()}
	var (
		conns []net.Conn
		kept  []slotInfo
	)
	st.droppedLast = st.droppedLast[:0]
	for _, sl := range slots {
		var (
			conn net.Conn
			err  error
		)
		if spec.NewSession != nil {
			for a := 0; a < pol.Attempts(); a++ {
				if a > 0 {
					st.retries++
					if serr := sleepCtx(ctx, pol.Backoff(a-1)); serr != nil {
						return closeAll(conns, serr)
					}
				}
				conn, err = spec.NewSession(ctx, sl.orig)
				if err == nil {
					break
				}
			}
		} else {
			conn, err = dialRetry(ctx, sl.addr, pol, &st.retries)
		}
		if err != nil || conn == nil {
			st.peersLost++
			st.droppedLast = append(st.droppedLast, sl.orig)
			continue
		}
		conns = append(conns, conn)
		kept = append(kept, sl)
	}
	if len(conns) == 0 {
		return nil, nil, errors.New("no peer reachable")
	}
	// The whole partition map lands on fresh sessions each round.
	st.reseeded += int64(check.DistNumParts)
	return conns, kept, nil
}

func closeAll(conns []net.Conn, err error) ([]net.Conn, []slotInfo, error) {
	for _, c := range conns {
		c.Close()
	}
	return nil, nil, err
}

// runEpoch drives one exploration attempt over one session set. It
// owns the conns for the epoch and closes them on every path; a
// *PeerLostError return is what the fail-over loop in Run reacts to.
func runEpoch(ctx context.Context, p model.Protocol, conns []net.Conn, slots []slotInfo, spec Spec, st *failState) (*check.ExploreResult, error) {
	peers := len(conns)
	now := time.Now().UnixNano()
	cps := make([]*coordPeer, peers)
	for i, conn := range conns {
		cps[i] = &coordPeer{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), addr: slots[i].addr}
		cps[i].lastPong.Store(now)
	}
	var closeOnce sync.Once
	shutdown := func() {
		closeOnce.Do(func() {
			for _, cp := range cps {
				cp.conn.Close()
			}
		})
	}
	defer shutdown()

	// Handshake: HELLO out, HELLOACK back, synchronously per peer. After
	// this every peer is running its engine against the same pinned spec.
	for i, cp := range cps {
		hello := helloMsg{
			Proto: spec.Proto, N: spec.N, K: spec.K, M: spec.M,
			AgreeK: spec.AgreeK, Inputs: spec.Inputs,
			MaxConfigs: spec.Limits.MaxConfigs, MaxDepth: spec.Limits.MaxDepth,
			Workers: spec.Workers, Store: spec.Store, MemBudget: spec.MemBudget,
			Reduce: spec.Reduce, Order: spec.Order,
			PeerIndex: i, PeerCount: peers,
		}
		if err := cp.writeFrame(frameHello, marshalCtrl(hello)); err != nil {
			return nil, &PeerLostError{Peer: i, Addr: cp.addr, Err: err}
		}
	}
	for i, cp := range cps {
		t, payload, _, err := readFrame(cp.br, nil)
		if err != nil {
			return nil, &PeerLostError{Peer: i, Addr: cp.addr, Err: err}
		}
		switch t {
		case frameHelloAck:
		case frameError:
			var m errorMsg
			unmarshalCtrl(payload, &m)
			return nil, &PeerLostError{Peer: i, Addr: cp.addr, Err: fmt.Errorf("peer rejected spec: %s", m.Msg)}
		default:
			return nil, &PeerLostError{Peer: i, Addr: cp.addr, Err: &FrameError{Reason: fmt.Sprintf("expected hello ack, got frame type %d", t)}}
		}
	}

	// Re-seeded epochs announce themselves: RESEED tags the session set
	// with the fail-over round, RANGE names each slot whose partition
	// range was re-spread. Both are observability — exploration restarts
	// from the initial configuration, so no state is grafted.
	if st.rounds > 0 {
		for i, cp := range cps {
			if err := cp.writeFrame(frameReseed, marshalCtrl(reseedMsg{Epoch: st.rounds, Depth: int(st.lastDepth)})); err != nil {
				return nil, &PeerLostError{Peer: i, Addr: cp.addr, Err: err}
			}
			for _, orig := range st.droppedLast {
				if err := cp.writeFrame(frameRange, marshalCtrl(rangeMsg{Epoch: st.rounds, Peer: orig, Depth: int(st.lastDepth)})); err != nil {
					return nil, &PeerLostError{Peer: i, Addr: cp.addr, Err: err}
				}
			}
		}
	}

	// Cancellation: closing the conns fails every blocked read and write,
	// which collapses the run into a PeerLostError path.
	if ctx != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				shutdown()
			case <-watchDone:
			}
		}()
	}

	// Per-peer readers: relay successor batches straight to their
	// destination conn (raw payload re-framed, one write mutex per dest)
	// and route control frames to the state machine. The relay is what
	// gives the expand barrier its ordering guarantee: a peer's batches
	// are written into each destination conn before the peer's EXPANDED
	// reaches the control loop, and BARRIER is broadcast only after every
	// EXPANDED — so on each destination conn, every batch of the level
	// happens-before the BARRIER frame.
	ctrl := make(chan ctrlMsg, 4*peers)
	errc := make(chan error, 2*peers)
	var readerWG sync.WaitGroup
	hbWindow := hbDeadlineFactor * spec.heartbeatEvery()
	for i, cp := range cps {
		readerWG.Add(1)
		go func(i int, cp *coordPeer) {
			defer readerWG.Done()
			var buf []byte
			fail := func(err error) {
				if cp.hbExpired.Load() {
					err = fmt.Errorf("no heartbeat answer within %v: %w", hbWindow, err)
				}
				errc <- &PeerLostError{Peer: i, Addr: cp.addr, Err: err}
			}
			for {
				var (
					t       frameType
					payload []byte
					err     error
				)
				t, payload, buf, err = readFrame(cp.br, buf)
				if err != nil {
					fail(err)
					return
				}
				// Any frame proves liveness, not just pongs: a peer
				// streaming batches may answer pings arbitrarily late
				// (the pong queues behind large in-band frames), and
				// declaring a visibly-talking peer dead is exactly the
				// false positive the deadline must not produce.
				cp.lastPong.Store(time.Now().UnixNano())
				switch t {
				case frameBatch:
					if len(payload) < batchHeaderLen {
						fail(&FrameError{Reason: "batch payload shorter than its header"})
						return
					}
					dest := int(payload[0])
					if dest >= peers || dest == i {
						fail(&FrameError{Reason: fmt.Sprintf("batch addressed to peer %d", dest)})
						return
					}
					if werr := cps[dest].writeFrame(frameBatch, payload); werr != nil {
						errc <- &PeerLostError{Peer: dest, Addr: cps[dest].addr, Err: werr}
						return
					}
				case framePong:
					cp.lastPong.Store(time.Now().UnixNano())
				case frameExpanded, frameLevel, frameFPs, frameResult, frameError:
					ctrl <- ctrlMsg{peer: i, kind: t, payload: append([]byte(nil), payload...)}
				default:
					fail(&FrameError{Reason: fmt.Sprintf("unexpected frame type %d from peer", t)})
					return
				}
			}
		}(i, cp)
	}
	// The readers hold conn references only; once the conns close they
	// all fail out. Collect them before returning so none outlives the
	// epoch.
	defer readerWG.Wait()
	defer shutdown()

	// Heartbeat monitor: ping every period; a peer whose reader has seen
	// no pong for the full window gets its conn closed, which surfaces
	// the loss through the reader's error path with the heartbeat cause
	// attached. Ping writes share the per-peer write mutex with relays,
	// so frames never interleave.
	if hb := spec.heartbeatEvery(); hb > 0 {
		stopHB := make(chan struct{})
		defer close(stopHB)
		go func() {
			tick := time.NewTicker(hb)
			defer tick.Stop()
			for {
				select {
				case <-stopHB:
					return
				case <-tick.C:
					now := time.Now().UnixNano()
					for _, cp := range cps {
						if now-cp.lastPong.Load() > int64(hbWindow) {
							if !cp.hbExpired.Swap(true) {
								cp.conn.Close()
							}
							continue
						}
						cp.writeFrame(framePing, nil) // a failed write surfaces via the reader
					}
				}
			}
		}()
	}

	next := func() (ctrlMsg, error) {
		// Prefer queued control frames: a peer that sends a typed ERROR
		// and then hits EOF has both waiting, and the ERROR (pushed first,
		// same reader goroutine) is the informative one.
		select {
		case m := <-ctrl:
			return m, nil
		default:
		}
		select {
		case m := <-ctrl:
			return m, nil
		case err := <-errc:
			shutdown()
			return ctrlMsg{}, err
		}
	}

	if err := runLevelControl(cps, spec, st, next); err != nil {
		shutdown()
		return nil, err
	}

	results, err := gatherResults(ctrl, errc, slots[:peers])
	if err != nil {
		return nil, err
	}
	return mergeResults(p, spec, results, st)
}

// gatherResults collects one RESULT per peer from the readers' channels.
// A peer closes its conn right after its RESULT, so an EOF from a peer
// whose result is already in is the normal end of its stream, not a loss
// — only errors from peers still owing a result fail the epoch.
//
// A peer's reader queues the RESULT before the EOF that follows it, but
// on two channels, and a select with both ready takes either: an EOF from
// a peer still owing its result is therefore held (owed) while the
// control frames already queued are read, and is a loss only if the
// result is not among them.
func gatherResults(ctrl <-chan ctrlMsg, errc <-chan error, slots []slotInfo) ([]*resultMsg, error) {
	peers := len(slots)
	results := make([]*resultMsg, peers)
	var owed *PeerLostError
	for got := 0; got < peers; {
		var m ctrlMsg
		if owed != nil {
			select {
			case m = <-ctrl:
			default:
				return nil, owed
			}
		} else {
			select {
			case m = <-ctrl:
			case rerr := <-errc:
				var pl *PeerLostError
				if !errors.As(rerr, &pl) || pl.Peer >= peers {
					return nil, rerr
				}
				if results[pl.Peer] == nil {
					owed = pl
				}
				continue
			}
		}
		switch m.kind {
		case frameResult:
			var r resultMsg
			if err := unmarshalCtrl(m.payload, &r); err != nil {
				return nil, &PeerLostError{Peer: m.peer, Addr: slots[m.peer].addr, Err: err}
			}
			if results[m.peer] == nil {
				got++
			}
			results[m.peer] = &r
			if owed != nil && owed.Peer == m.peer {
				owed = nil
			}
		case frameError:
			var em errorMsg
			unmarshalCtrl(m.payload, &em)
			return nil, &PeerLostError{Peer: m.peer, Addr: slots[m.peer].addr, Err: fmt.Errorf("peer run failed: %s", em.Msg)}
		default:
			return nil, &PeerLostError{Peer: m.peer, Addr: slots[m.peer].addr, Err: &FrameError{Reason: fmt.Sprintf("expected result, got frame type %d", m.kind)}}
		}
	}
	return results, nil
}

// runLevelControl is the coordinator's barrier state machine: per depth,
// gather EXPANDED from every peer, broadcast BARRIER, gather LEVEL
// reports, apply the global budget, broadcast CONT.
func runLevelControl(cps []*coordPeer, spec Spec, st *failState, next func() (ctrlMsg, error)) error {
	peers := len(cps)
	broadcast := func(t frameType, payload []byte) error {
		for i, cp := range cps {
			if err := cp.writeFrame(t, payload); err != nil {
				return &PeerLostError{Peer: i, Addr: cp.addr, Err: err}
			}
		}
		return nil
	}
	truncated := false
	for depth := 0; ; depth++ {
		if st != nil {
			st.lastDepth = int64(depth)
		}
		// Phase 1: every peer finished expanding the level (its batches
		// are already relayed — conn FIFO order guarantees that).
		for seen := 0; seen < peers; {
			m, err := next()
			if err != nil {
				return err
			}
			if m.kind != frameExpanded {
				return &PeerLostError{Peer: m.peer, Addr: cps[m.peer].addr, Err: &FrameError{Reason: fmt.Sprintf("expected expanded, got frame type %d", m.kind)}}
			}
			var dm depthMsg
			if err := unmarshalCtrl(m.payload, &dm); err != nil {
				return err
			}
			if dm.Depth != depth {
				return &PeerLostError{Peer: m.peer, Addr: cps[m.peer].addr, Err: &FrameError{Reason: fmt.Sprintf("peer expanded depth %d at barrier %d", dm.Depth, depth)}}
			}
			seen++
		}
		if err := broadcast(frameBarrier, marshalCtrl(depthMsg{Depth: depth})); err != nil {
			return err
		}

		// Phase 2: post-EndLevel reports.
		var (
			totalAdmitted int64
			totalNext     int
			stop          bool
			nextSize      = make([]int, peers)
		)
		for seen := 0; seen < peers; {
			m, err := next()
			if err != nil {
				return err
			}
			if m.kind != frameLevel {
				return &PeerLostError{Peer: m.peer, Addr: cps[m.peer].addr, Err: &FrameError{Reason: fmt.Sprintf("expected level report, got frame type %d", m.kind)}}
			}
			var lm levelMsg
			if err := unmarshalCtrl(m.payload, &lm); err != nil {
				return err
			}
			totalAdmitted += lm.Admitted
			totalNext += lm.Next
			nextSize[m.peer] = lm.Next
			stop = stop || lm.Stop
			seen++
		}

		// Global budget: when the summed admissions overshoot, gather the
		// per-peer sorted next-frontier fingerprints and keep the globally
		// smallest keepTotal — the same sorted-fingerprint cutoff the
		// store's own EndLevel applies, so the surviving set (and hence
		// every later verdict) is independent of the peer count.
		keep := make([]int, peers)
		willTruncate := !truncated && int(totalAdmitted) > spec.Limits.MaxConfigs
		if willTruncate {
			truncated = true
			keepTotal := totalNext - (int(totalAdmitted) - spec.Limits.MaxConfigs)
			if keepTotal < 0 {
				keepTotal = 0
			}
			if err := broadcast(frameNeedFPs, marshalCtrl(depthMsg{Depth: depth})); err != nil {
				return err
			}
			peerFPs := make([][]uint64, peers)
			for done := 0; done < peers; {
				m, err := next()
				if err != nil {
					return err
				}
				if m.kind != frameFPs {
					return &PeerLostError{Peer: m.peer, Addr: cps[m.peer].addr, Err: &FrameError{Reason: fmt.Sprintf("expected fingerprints, got frame type %d", m.kind)}}
				}
				fps, last, err := decodeFPChunk(m.payload)
				if err != nil {
					return &PeerLostError{Peer: m.peer, Addr: cps[m.peer].addr, Err: err}
				}
				peerFPs[m.peer] = append(peerFPs[m.peer], fps...)
				if last {
					done++
				}
			}
			var merged []uint64
			for i, fps := range peerFPs {
				if len(fps) != nextSize[i] {
					return &PeerLostError{Peer: i, Addr: cps[i].addr, Err: &FrameError{Reason: fmt.Sprintf("peer reported %d next nodes but sent %d fingerprints", nextSize[i], len(fps))}}
				}
				merged = append(merged, fps...)
			}
			sort.Slice(merged, func(a, b int) bool { return merged[a] < merged[b] })
			if keepTotal > len(merged) {
				keepTotal = len(merged)
			}
			if keepTotal == 0 {
				// Everything next is cut.
			} else {
				// Fingerprints are globally distinct (one owning peer per
				// fingerprint, deduped there), so the cutoff is exact: peer
				// i keeps its fingerprints <= the keepTotal-th smallest.
				threshold := merged[keepTotal-1]
				for i, fps := range peerFPs {
					keep[i] = sort.Search(len(fps), func(j int) bool { return fps[j] > threshold })
				}
			}
			totalNext = keepTotal
		}

		done := totalNext == 0 || stop
		for i, cp := range cps {
			cm := contMsg{Depth: depth, Keep: keep[i], Truncated: willTruncate, Done: done}
			if err := cp.writeFrame(frameCont, marshalCtrl(cm)); err != nil {
				return &PeerLostError{Peer: i, Addr: cp.addr, Err: err}
			}
		}
		if done {
			return nil
		}
	}
}

// mergeResults folds the per-peer shares into one ExploreResult: counts
// sum, completeness ANDs, decided values union, and the violation
// witness is the global (depth, fingerprint) minimum replayed from its
// pid path — the same representative the single-process engine reports.
// Per-value witnesses merge the same way (global minimum per value),
// each validated by replaying its path from the start configuration.
func mergeResults(p model.Protocol, spec Spec, results []*resultMsg, st *failState) (*check.ExploreResult, error) {
	out := &check.ExploreResult{Complete: true}
	decided := map[int]bool{}
	bestWit := map[int]*valWitnessMsg{}
	var viol *resultMsg
	for _, r := range results {
		out.Visited += r.Visited
		out.Complete = out.Complete && r.Complete
		for _, v := range r.Decided {
			decided[v] = true
		}
		if r.MaxTogether > out.MaxDecidedTogether {
			out.MaxDecidedTogether = r.MaxTogether
		}
		if r.HasViol {
			if viol == nil || r.ViolDepth < viol.ViolDepth ||
				(r.ViolDepth == viol.ViolDepth && r.ViolFP < viol.ViolFP) {
				viol = r
			}
		}
		for i := range r.ValWits {
			w := &r.ValWits[i]
			b := bestWit[w.Value]
			if b == nil || w.Depth < b.Depth || (w.Depth == b.Depth && w.FP < b.FP) {
				bestWit[w.Value] = w
			}
		}

		out.Store.Kind = r.Store.Kind
		out.Store.BytesSpilled += r.Store.BytesSpilled
		out.Store.RunsWritten += r.Store.RunsWritten
		out.Store.RunsMerged += r.Store.RunsMerged
		out.Store.PeakResidentBytes += r.Store.PeakResidentBytes
		out.Store.PrefilterHits += r.Store.PrefilterHits

		out.Reduction.Reduce = r.Reduction.Reduce
		out.Reduction.StatesPruned += r.Reduction.StatesPruned
		out.Reduction.OrbitHits += r.Reduction.OrbitHits

		out.Async.Order = r.Async.Order

		// Each relayed record is counted once, at its sender. Traffic
		// counters reflect the verdict-producing epoch; aborted epochs'
		// traffic is not part of the result it reports.
		out.Net.BatchesSent += r.Net.BatchesSent
		out.Net.BytesSent += r.Net.BytesSent
		out.Net.PeerStalls += r.Net.PeerStalls
	}
	out.Net.Peers = len(results)
	if st != nil {
		out.Net.PeersLost = st.peersLost
		out.Net.ReseededPartitions = st.reseeded
		out.Net.Retries = st.retries
	}
	for v := range decided {
		out.DecidedValues = append(out.DecidedValues, v)
	}
	sort.Ints(out.DecidedValues)
	// Witnesses arrive as pid paths; replaying one validates every
	// transition against the model.
	start, err := model.NewConfig(p, spec.Inputs)
	if err != nil {
		return nil, fmt.Errorf("dist: rebuilding start configuration: %w", err)
	}
	for _, v := range out.DecidedValues {
		w := bestWit[v]
		if w == nil {
			continue
		}
		if _, err := model.Replay(p, start, w.Path); err != nil {
			return nil, fmt.Errorf("dist: replaying witness for value %d: %w", v, err)
		}
		out.ValueWitnesses = append(out.ValueWitnesses, check.ValueWitness{
			Value: w.Value, Depth: w.Depth, FP: w.FP, Path: append([]byte(nil), w.Path...),
		})
	}
	if viol != nil {
		cfg, err := model.Replay(p, start, viol.ViolPath)
		if err != nil {
			return nil, fmt.Errorf("dist: replaying violation witness: %w", err)
		}
		out.AgreementViolation = cfg
		out.ViolationDepth = viol.ViolDepth
		out.ViolationFP = viol.ViolFP
		out.ViolationPath = append([]byte(nil), viol.ViolPath...)
	}
	return out, nil
}

// withLimitDefaults mirrors check.ExploreLimits.withDefaults so the
// coordinator's budget math and the peers' agree on MaxConfigs.
func withLimitDefaults(l check.ExploreLimits) check.ExploreLimits {
	if l.MaxConfigs <= 0 {
		l.MaxConfigs = check.DefaultMaxConfigs
	}
	return l
}
