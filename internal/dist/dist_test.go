package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
)

// --- The distributed differential suite ---
//
// The entire correctness claim of the dist layer is peer-count
// invariance: for every protocol, reduction mode, store and peer count,
// `-distributed` must report exactly the verdict the
// single-process engine reports — same visited-set size, same decided
// values, same violation identity. These tests pin that claim over
// loopback pipes (same wire protocol as TCP, no sockets), plus a real
// TCP smoke run and the peer-loss failure path.

type distCase struct {
	name     string
	p        model.Protocol
	inputs   []int
	k        int
	maxDepth int
}

func distCases(t *testing.T) []distCase {
	t.Helper()
	toybit, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rks, err := baseline.NewRegisterKSet(4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []distCase{
		// Table 1 row 3 shape at reduced depth: Algorithm 1 consensus.
		{"consensus-swap", core.MustNew(core.Params{N: 4, K: 1, M: 2}), []int{0, 1, 1, 0}, 1, 5},
		// Row 6: k-set from registers (has a violation to find).
		{"kset-registers", rks, []int{0, 1, 2, 0}, 2, 6},
		// Anonymous symmetric control with a violation witness.
		{"toybit", toybit, []int{0, 1, 0, 1}, 1, 8},
	}
}

func pidsOf(p model.Protocol) []int {
	pids := make([]int, p.NumProcesses())
	for i := range pids {
		pids[i] = i
	}
	return pids
}

type verdict struct {
	visited     int
	complete    bool
	decided     []int
	maxTogether int
	hasViol     bool
	violDepth   int
	violFP      uint64
}

func verdictOf(res *check.ExploreResult) verdict {
	decided := res.DecidedValues
	if len(decided) == 0 {
		decided = nil
	}
	return verdict{
		visited:     res.Visited,
		complete:    res.Complete,
		decided:     decided,
		maxTogether: res.MaxDecidedTogether,
		hasViol:     res.AgreementViolation != nil,
		violDepth:   res.ViolationDepth,
		violFP:      res.ViolationFP,
	}
}

// legalEngines lists, at 2 workers, every order × reduction × store cell
// the mode table accepts for a distributed run that keep also accepts
// (nil = all of them). It is read off check.EngineOptions.Validate, so the
// suites here follow check.ModeConflicts instead of a hand-kept list:
// the table leaves a distributed run the levelsync order only, so every
// cell is a deterministic one.
func legalEngines(keep func(check.EngineOptions) bool) []check.EngineOptions {
	var cells []check.EngineOptions
	for _, order := range []string{check.OrderLevelSync, check.OrderAsync} {
		for _, reduce := range []string{check.ReduceNone, check.ReduceSym} {
			for _, store := range []string{check.StoreMem, check.StoreSpill} {
				if (check.EngineOptions{Order: order, Reduction: reduce, Store: store}).Validate(true) != nil {
					continue
				}
				eng := check.EngineOptions{Order: order, Reduction: reduce, Store: store, Workers: 2}
				if store == check.StoreSpill {
					eng.MemBudget = 1 << 16
				}
				if keep == nil || keep(eng) {
					cells = append(cells, eng)
				}
			}
		}
	}
	return cells
}

// inMemory keeps the in-memory-store cells.
func inMemory(e check.EngineOptions) bool { return e.Store == check.StoreMem }

func engineName(e check.EngineOptions) string {
	return fmt.Sprintf("%s/%s/%s", e.Order, e.Reduction, e.Store)
}

// parityOracle runs opts in one process and returns the check a
// distributed run of opts must pass: the whole verdict, the violation's
// (depth, fingerprint) included. A merged violation witness must also
// replay to a genuinely violating configuration, not just match by id.
func parityOracle(t *testing.T, p model.Protocol, inputs []int, k int, opts check.ExploreOptions) func(name string, res *check.ExploreResult) {
	t.Helper()
	oracle, err := check.ExploreOpts(p, model.MustNewConfig(p, inputs), pidsOf(p), k, opts)
	if err != nil {
		t.Fatalf("%s oracle: %v", engineName(opts.Engine), err)
	}
	want := verdictOf(oracle)
	return func(name string, res *check.ExploreResult) {
		t.Helper()
		if got := verdictOf(res); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: verdict %+v, single-process %+v", name, got, want)
		}
		if want.hasViol {
			if res.AgreementViolation == nil {
				t.Fatalf("%s: violation lost in merge", name)
			}
			if vals := res.AgreementViolation.DecidedValues(p); len(vals) <= k {
				t.Errorf("%s: replayed witness decides %d values, need > %d", name, len(vals), k)
			}
		}
	}
}

// TestLoopbackParity: 1/2/3 peers x every legal reduction x store cell
// matches the single-process engine on every case. Run under
// -race this is the dist-smoke CI gate.
func TestLoopbackParity(t *testing.T) {
	for _, tc := range distCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			limits := check.ExploreLimits{MaxConfigs: 300000, MaxDepth: tc.maxDepth}
			for _, eng := range legalEngines(nil) {
				opts := check.ExploreOptions{Limits: limits, Engine: eng}
				matches := parityOracle(t, tc.p, tc.inputs, tc.k, opts)
				for peers := 1; peers <= 3; peers++ {
					name := fmt.Sprintf("%s/%d peers", engineName(eng), peers)
					res, err := dist.LoopbackExplore(context.Background(), tc.p, tc.inputs, tc.k, opts, peers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					matches(name, res)
					if res.Net.Peers != peers {
						t.Errorf("%s: Net.Peers = %d", name, res.Net.Peers)
					}
					if peers > 1 && res.Net.BatchesSent == 0 {
						t.Errorf("%s: no batches crossed the wire", name)
					}
				}
			}
		})
	}
}

// TestLoopbackRejectsModeConflicts: the pairings the mode table forbids
// are refused by the coordinator before any peer runs, with the error
// every other entry point gives.
func TestLoopbackRejectsModeConflicts(t *testing.T) {
	tc := distCases(t)[0]
	for _, eng := range []check.EngineOptions{
		{Order: check.OrderAsync},
		{Order: check.OrderAsync, Reduction: check.ReduceSym},
		{Order: check.OrderAsync, Store: check.StoreSpill},
		{StringKeys: true},
		{Provenance: true},
		{Checkpoint: t.TempDir()},
	} {
		_, err := dist.LoopbackExplore(context.Background(), tc.p, tc.inputs, tc.k, check.ExploreOptions{Engine: eng}, 2)
		if !errors.Is(err, check.ErrIncompatibleModes) {
			t.Errorf("%+v: err = %v, want ErrIncompatibleModes", eng, err)
		}
	}
}

// TestLoopbackRejectsUnknownStore: options no peer would run are the
// coordinator's error before any HELLO, so a fail-over run reports them
// without re-seeding: no peer beyond the first set is ever spawned.
func TestLoopbackRejectsUnknownStore(t *testing.T) {
	tc := distCases(t)[0]
	var spawned atomic.Int64
	lo := dist.LoopbackOptions{Peers: 2, Failover: true, Respawn: true,
		WrapPeerConn: func(_ int, c net.Conn) net.Conn { spawned.Add(1); return c }}
	opts := check.ExploreOptions{Engine: check.EngineOptions{Store: "bogus"}}
	_, err := dist.LoopbackExploreOpts(context.Background(), tc.p, tc.inputs, tc.k, opts, lo)
	var pl *dist.PeerLostError
	if err == nil || !strings.Contains(err.Error(), `unknown store "bogus"`) || errors.As(err, &pl) {
		t.Errorf("err = %v, want the engine's unknown-store error", err)
	}
	if n := spawned.Load(); n != 2 {
		t.Errorf("%d peers spawned, want the first 2 and no re-seed", n)
	}
}

// TestLoopbackTruncationParity: when the global configuration budget
// bites, a distributed run visits exactly the budget — what
// ExploreLimits.MaxConfigs promises of any capped run — and the
// coordinator's prefix-sum cut over the peers' ascending ranges keeps
// exactly the set the single-process store's sorted truncation keeps, so
// the whole verdict stays peer-count-invariant, in every cell the mode
// table leaves a distributed run. Algorithm 1 decides nothing before
// its budgets cut it, so any kept set gives its verdict; the toy-bit
// race's budgets cut the level where its first decisions appear (89,
// depth 4) and the level where its first violation appears (1513, depth
// 8), so a different kept set changes the decided values, maxTogether
// or the violation's fingerprint.
func TestLoopbackTruncationParity(t *testing.T) {
	toybit, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		p       model.Protocol
		inputs  []int
		budgets []int
	}{
		{"algorithm1", core.MustNew(core.Params{N: 4, K: 1, M: 2}), []int{0, 1, 1, 0}, []int{50, 400, 2000}},
		{"toybit", toybit, []int{0, 1, 0, 1}, []int{89, 1513}},
	} {
		for _, eng := range legalEngines(nil) {
			for _, budget := range tc.budgets {
				opts := check.ExploreOptions{Limits: check.ExploreLimits{MaxConfigs: budget}, Engine: eng}
				matches := parityOracle(t, tc.p, tc.inputs, 1, opts)
				for peers := 1; peers <= 3; peers++ {
					name := fmt.Sprintf("%s/%s/budget %d/%d peers", tc.name, engineName(eng), budget, peers)
					res, err := dist.LoopbackExplore(context.Background(), tc.p, tc.inputs, 1, opts, peers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if res.Visited != budget || res.Complete {
						t.Errorf("%s: visited %d (complete %v), want exactly the budget and incomplete", name, res.Visited, res.Complete)
					}
					matches(name, res)
				}
			}
		}
	}
}

// TestLoopbackSpillStore: the peer engines run their own spill stores
// under distribution.
func TestLoopbackSpillStore(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	inputs := []int{0, 1, 1, 0}
	c := model.MustNewConfig(p, inputs)
	opts := check.ExploreOptions{
		Limits: check.ExploreLimits{MaxConfigs: 300000, MaxDepth: 5},
		Engine: check.EngineOptions{Store: check.StoreSpill, MemBudget: 1 << 16, Workers: 2},
	}
	oracle, err := check.ExploreOpts(p, c, pidsOf(p), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dist.LoopbackExplore(context.Background(), p, inputs, 1, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := verdictOf(res), verdictOf(oracle); !reflect.DeepEqual(got, want) {
		t.Errorf("spill store, 2 peers: verdict %+v, single-process %+v", got, want)
	}
}

// TestTCPSmoke: a coordinator and two peer listeners over real
// 127.0.0.1 sockets reproduce the single-process verdict on a Table 1
// row instance. This is the `mcheck -peer` / `-distributed` path minus
// flag parsing.
func TestTCPSmoke(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	inputs := []int{0, 1, 1, 0}
	c := model.MustNewConfig(p, inputs)
	opts := check.ExploreOptions{Limits: check.ExploreLimits{MaxConfigs: 300000, MaxDepth: 5}}
	oracle, err := check.ExploreOpts(p, c, pidsOf(p), 1, opts)
	if err != nil {
		t.Fatal(err)
	}

	build := func(name string, n, k, m int) (model.Protocol, error) {
		return core.New(core.Params{N: n, K: k, M: m})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
		wg.Add(1)
		go func(ln net.Listener) {
			defer wg.Done()
			dist.ServePeer(ctx, ln, build)
		}(ln)
	}

	res, err := dist.Dial(ctx, p, addrs, dist.Spec{
		Proto: p.Name(), N: 4, K: 1, M: 2, AgreeK: 1, Inputs: inputs,
		Explore: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := verdictOf(res), verdictOf(oracle); !reflect.DeepEqual(got, want) {
		t.Errorf("tcp 2 peers: verdict %+v, single-process %+v", got, want)
	}
	cancel()
	waitOrFatal(t, &wg, "peer listeners did not shut down")
}

// TestPeerLost: a peer dying mid-run must fail the coordinator promptly
// with a typed *PeerLostError naming the peer — never a hang at a
// barrier the dead peer can no longer reach.
func TestPeerLost(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	inputs := []int{0, 1, 1, 0}

	// Peer 0 is real; peer 1 completes the handshake, then drops dead.
	c0, s0 := net.Pipe()
	c1, s1 := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		dist.ServePeerConn(context.Background(), s0, func(string, int, int, int) (model.Protocol, error) {
			return p, nil
		})
	}()
	go func() {
		defer wg.Done()
		defer s1.Close()
		br := bufio.NewReader(s1)
		hdr := make([]byte, 12)
		if _, err := ioReadFull(br, hdr); err != nil {
			return
		}
		n := int(uint32(hdr[8]) | uint32(hdr[9])<<8 | uint32(hdr[10])<<16 | uint32(hdr[11])<<24)
		body := make([]byte, n+4)
		if _, err := ioReadFull(br, body); err != nil {
			return
		}
		var h struct {
			PeerIndex int `json:"peer_index"`
		}
		json.Unmarshal(body[:n], &h)
		// A hand-rolled HELLOACK, then silence: the conn closes via defer.
		s1.Write(frameFor(t, 2, fmt.Appendf(nil, `{"peer_index":%d}`, h.PeerIndex)))
	}()

	done := make(chan struct{})
	var res *check.ExploreResult
	var err error
	go func() {
		defer close(done)
		res, err = dist.Run(context.Background(), p, []net.Conn{c0, c1}, []string{"pipe-0", "pipe-1"}, dist.Spec{
			Proto: p.Name(), AgreeK: 1, Inputs: inputs,
			Explore: check.ExploreOptions{Limits: check.ExploreLimits{MaxConfigs: 300000, MaxDepth: 5}},
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after peer loss")
	}
	if err == nil {
		t.Fatalf("coordinator succeeded (%+v) despite a dead peer", res)
	}
	var pl *dist.PeerLostError
	if !errors.As(err, &pl) {
		t.Fatalf("error is %T (%v), want *PeerLostError", err, err)
	}
	if pl.Peer != 1 {
		t.Errorf("lost peer = %d (%v), want 1", pl.Peer, pl)
	}
	waitOrFatal(t, &wg, "peer goroutines did not exit after coordinator failure")
}

// TestLoopbackCancel: cancelling the coordinator context collapses the
// whole fleet promptly.
func TestLoopbackCancel(t *testing.T) {
	p := core.MustNew(core.Params{N: 5, K: 1, M: 3})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		dist.LoopbackExplore(ctx, p, []int{0, 1, 2, 0, 1}, 1, check.ExploreOptions{
			Limits: check.ExploreLimits{MaxConfigs: 10_000_000},
		}, 2)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled distributed run did not return")
	}
}

func frameFor(t *testing.T, typ byte, payload []byte) []byte {
	t.Helper()
	// Mirror the frame layout by hand so this test does not depend on
	// package-internal helpers.
	b := []byte("DWF1")
	b = append(b, typ, 0, 0, 0)
	b = append(b, byte(len(payload)), byte(len(payload)>>8), byte(len(payload)>>16), byte(len(payload)>>24))
	b = append(b, payload...)
	crc := crc32ieee(b[4:])
	return append(b, byte(crc), byte(crc>>8), byte(crc>>16), byte(crc>>24))
}

func crc32ieee(b []byte) uint32 {
	const poly = 0xedb88320
	crc := ^uint32(0)
	for _, c := range b {
		crc ^= uint32(c)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

func ioReadFull(r *bufio.Reader, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := r.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func waitOrFatal(t *testing.T, wg *sync.WaitGroup, msg string) {
	t.Helper()
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal(msg)
	}
}
