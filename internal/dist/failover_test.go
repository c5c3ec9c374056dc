package dist_test

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
)

// --- The fail-over differential suite ---
//
// Fail-over soundness rides entirely on peer-count invariance: the
// verdict is identical for any peer count, so aborting an epoch on peer
// loss and re-running on the survivors (with or without the lost slot
// respawned) must reproduce the single-process verdict exactly — no
// partial state crosses epochs. These tests script the loss at exact
// protocol positions (the Nth coordinator write to the victim) and sweep
// that position across the whole frame flow: handshake, level barriers,
// budget gathers, result delivery, and the never-trips tail.

// TestFailoverKillSweep kills each peer at every write position 0..16 in
// each exploration order the quotient runs under and demands the
// single-process verdict every time. The respawned slot makes this the
// full-recovery path.
func TestFailoverKillSweep(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	inputs := []int{0, 1, 1, 0}
	limits := check.ExploreLimits{MaxConfigs: 300000, MaxDepth: 5}
	underSym := func(e check.EngineOptions) bool { return inMemory(e) && e.Reduction == check.ReduceSym }
	for _, eng := range legalEngines(underSym) {
		opts := check.ExploreOptions{Limits: limits, Engine: eng}
		matches := parityOracle(t, p, inputs, 1, opts)
		for victim := 0; victim < 2; victim++ {
			for j := 0; j <= 16; j++ {
				name := fmt.Sprintf("%s victim=%d writes=%d", eng.Order, victim, j)
				res, err := dist.LoopbackExploreOpts(context.Background(), p, inputs, 1, opts, dist.LoopbackOptions{
					Peers: 2, Failover: true, PeerRetries: 2,
					Kill: true, KillPeer: victim, KillAfterWrites: j,
					Respawn: true,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				matches(name, res)
				// If a fail-over round ran, the whole partition map moved.
				if res.Net.ReseededPartitions != 0 && res.Net.ReseededPartitions%int64(check.DistNumParts) != 0 {
					t.Errorf("%s: reseeded %d partitions, not a multiple of %d",
						name, res.Net.ReseededPartitions, check.DistNumParts)
				}
				// With a respawned slot nothing is permanently lost.
				if res.Net.PeersLost != 0 {
					t.Errorf("%s: peers_lost = %d with respawn", name, res.Net.PeersLost)
				}
			}
		}
	}
}

// TestFailoverMatrix crosses every legal order × reduction × store cell
// with a case that has a genuine violation (k-set from registers): the
// merged witness after a fail-over must still replay to a real violating
// configuration.
func TestFailoverMatrix(t *testing.T) {
	rks, err := baseline.NewRegisterKSet(4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []int{0, 1, 2, 0}
	limits := check.ExploreLimits{MaxConfigs: 300000, MaxDepth: 6}
	for _, eng := range legalEngines(nil) {
		opts := check.ExploreOptions{Limits: limits, Engine: eng}
		matches := parityOracle(t, rks, inputs, 2, opts)
		for _, j := range []int{1, 6, 11} {
			res, err := dist.LoopbackExploreOpts(context.Background(), rks, inputs, 2, opts, dist.LoopbackOptions{
				Peers: 2, Failover: true, PeerRetries: 2,
				Kill: true, KillPeer: 1, KillAfterWrites: j,
				Respawn: true,
			})
			if err != nil {
				t.Fatalf("%s writes=%d: %v", engineName(eng), j, err)
			}
			matches(fmt.Sprintf("%s writes=%d", engineName(eng), j), res)
		}
	}
}

// TestFailoverDegraded leaves the killed slot dead: the run must degrade
// to the survivors and still produce the single-process verdict, with
// the loss visible in NetStats.
func TestFailoverDegraded(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	inputs := []int{0, 1, 1, 0}
	limits := check.ExploreLimits{MaxConfigs: 300000, MaxDepth: 5}
	unreduced := func(e check.EngineOptions) bool { return inMemory(e) && e.Reduction == check.ReduceNone }
	for _, eng := range legalEngines(unreduced) {
		opts := check.ExploreOptions{Limits: limits, Engine: eng}
		matches := parityOracle(t, p, inputs, 1, opts)
		for _, j := range []int{0, 3, 7} {
			name := fmt.Sprintf("%s writes=%d", eng.Order, j)
			res, err := dist.LoopbackExploreOpts(context.Background(), p, inputs, 1, opts, dist.LoopbackOptions{
				Peers: 3, Failover: true, PeerRetries: 1,
				Kill: true, KillPeer: 1, KillAfterWrites: j,
				Respawn: false, // the dead slot stays dead
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			matches(name, res)
			if res.Net.PeersLost != 1 {
				t.Errorf("%s: peers_lost = %d, want 1", name, res.Net.PeersLost)
			}
			if res.Net.Peers != 2 {
				t.Errorf("%s: verdict epoch ran on %d peers, want 2", name, res.Net.Peers)
			}
			if res.Net.ReseededPartitions < int64(check.DistNumParts) {
				t.Errorf("%s: reseeded_partitions = %d, want >= %d",
					name, res.Net.ReseededPartitions, check.DistNumParts)
			}
		}
	}
}

// TestFailoverTruncationParity: the deterministic budget cutoff and the
// fail-over restart compose — a run that both truncates and loses a peer
// keeps the single-process truncated verdict.
func TestFailoverTruncationParity(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	inputs := []int{0, 1, 1, 0}
	c := model.MustNewConfig(p, inputs)
	for _, budget := range []int{50, 400} {
		opts := check.ExploreOptions{
			Limits: check.ExploreLimits{MaxConfigs: budget},
			Engine: check.EngineOptions{Workers: 2},
		}
		oracle, err := check.ExploreOpts(p, c, pidsOf(p), 1, opts)
		if err != nil {
			t.Fatalf("budget %d oracle: %v", budget, err)
		}
		if oracle.Complete {
			t.Fatalf("budget %d did not truncate; test needs the budget to bite", budget)
		}
		want := verdictOf(oracle)
		for _, j := range []int{2, 8} {
			res, err := dist.LoopbackExploreOpts(context.Background(), p, inputs, 1, opts, dist.LoopbackOptions{
				Peers: 2, Failover: true, PeerRetries: 2,
				Kill: true, KillPeer: 0, KillAfterWrites: j,
				Respawn: true,
			})
			if err != nil {
				t.Fatalf("budget %d writes=%d: %v", budget, j, err)
			}
			if got := verdictOf(res); !reflect.DeepEqual(got, want) {
				t.Errorf("budget %d writes=%d: verdict %+v, single-process %+v", budget, j, got, want)
			}
		}
	}
}

// slowConn delays every peer-side write — batches, barrier acks and
// heartbeat answers alike. A peer behind such a link is slow but alive.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (s *slowConn) Write(b []byte) (int, error) {
	time.Sleep(s.delay)
	return s.Conn.Write(b)
}

// TestHeartbeatFalsePositive: a slow-but-alive peer must never be
// declared dead. The heartbeat deadline is several probe periods, so a
// per-write delay well under one period cannot starve the pong past it —
// the run completes with zero losses and zero re-seeds.
func TestHeartbeatFalsePositive(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	inputs := []int{0, 1, 1, 0}
	c := model.MustNewConfig(p, inputs)
	opts := check.ExploreOptions{
		Limits: check.ExploreLimits{MaxConfigs: 300000, MaxDepth: 4},
		Engine: check.EngineOptions{Workers: 2},
	}
	oracle, err := check.ExploreOpts(p, c, pidsOf(p), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dist.LoopbackExploreOpts(context.Background(), p, inputs, 1, opts, dist.LoopbackOptions{
		Peers: 2, Failover: true,
		Heartbeat: 50 * time.Millisecond, // deadline = 4 periods = 200ms
		WrapPeerConn: func(_ int, conn net.Conn) net.Conn {
			return &slowConn{Conn: conn, delay: 5 * time.Millisecond}
		},
	})
	if err != nil {
		t.Fatalf("slow peer killed the run: %v", err)
	}
	if got, want := verdictOf(res), verdictOf(oracle); !reflect.DeepEqual(got, want) {
		t.Errorf("slow peer: verdict %+v, single-process %+v", got, want)
	}
	if res.Net.PeersLost != 0 || res.Net.ReseededPartitions != 0 {
		t.Errorf("slow-but-alive peer declared dead: peers_lost=%d reseeded_partitions=%d",
			res.Net.PeersLost, res.Net.ReseededPartitions)
	}
}

// TestFailoverValencyParity: the distributed valency classification
// (merged decided values + replay-validated witnesses) matches the
// single-process ClassifyValencyOpts class, including across a
// fail-over.
func TestFailoverValencyParity(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	inputs := []int{0, 1, 1, 0}
	c := model.MustNewConfig(p, inputs)
	// Deep enough for decisions to appear: the 0/1 input swap decides
	// both values well inside this budget, certifying bivalence.
	opts := check.ExploreOptions{
		Limits: check.ExploreLimits{MaxConfigs: 200000},
		Engine: check.EngineOptions{Workers: 2},
	}
	oracleVal, err := check.ClassifyValencyOpts(p, c, pidsOf(p), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dist.LoopbackExploreOpts(context.Background(), p, inputs, 1, opts, dist.LoopbackOptions{
		Peers: 2, Failover: true, PeerRetries: 2,
		Kill: true, KillPeer: 1, KillAfterWrites: 4,
		Respawn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	val := check.ValencyFromResult(res)
	if val.Class != oracleVal.Class {
		t.Errorf("distributed valency %v, single-process %v", val.Class, oracleVal.Class)
	}
	// A swap of two input values is the canonical bivalent instance; the
	// merged result must carry a replay-validated witness per value.
	if val.Class != check.Bivalent {
		t.Errorf("valency = %v, want Bivalent for a 0/1 input swap", val.Class)
	}
	if len(res.ValueWitnesses) != len(res.DecidedValues) {
		t.Errorf("merged %d value witnesses for %d decided values", len(res.ValueWitnesses), len(res.DecidedValues))
	}
}
