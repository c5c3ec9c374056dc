package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/model"
)

// verdict is the timing-free part of an exploration result that the
// benchmark pins: a repetition that returns anything else has failed.
type verdict struct {
	visited  int
	decided  []int // nil = not pinned, and together neither
	together int   // MaxDecidedTogether
	complete bool
}

// exploreSpec is one exploration instance: a protocol, the multiset its
// inputs are drawn from, a budget, the engine configuration under test
// and the verdict it must produce.
type exploreSpec struct {
	proto  func() (model.Protocol, error)
	inputs []int // the seed permutes these over the processes
	k      int   // agreement parameter tracked (0 = none)
	budget int   // MaxConfigs
	engine check.EngineOptions
	peers  int // > 0: dist.LoopbackExplore over that many peers
	want   verdict
}

func algorithm1Row3() (model.Protocol, error) {
	return core.New(core.Params{N: 4, K: 1, M: 3})
}

// row3 is Table 1's row-3 explorer instance (Algorithm 1, N=4 K=1 M=3,
// inputs a permutation of [0,1,2,0]) at a configuration budget. The
// space is infinite, so every run is budget-bound and visits exactly
// the budget; which values have been decided by then is pinned per
// budget. Algorithm 1 declares no process symmetry, but its level
// profile is the same for every permutation of the inputs (probed), so
// the seed does not move the work done.
func row3(budget int, engine check.EngineOptions) exploreSpec {
	want := verdict{visited: budget, decided: []int{}}
	if budget >= 500000 {
		want.decided, want.together = []int{0, 1, 2}, 1
	}
	return exploreSpec{proto: algorithm1Row3, inputs: []int{0, 1, 2, 0}, k: 1,
		budget: budget, engine: engine, want: want}
}

// toyBit is the anonymous toy-bit race over 2 bits with inputs i mod 2,
// explored to completion: the only process-symmetric protocol in the
// registry, hence the only instance the reduction layer works on. The
// orbit-state count is exact and the same for every input permutation.
func toyBit(n, orbitStates int, engine check.EngineOptions) exploreSpec {
	inputs := make([]int, n)
	for i := range inputs {
		inputs[i] = i % 2
	}
	return exploreSpec{
		proto:  func() (model.Protocol, error) { return baseline.NewToyBitRace(n, 2) },
		inputs: inputs, budget: 100_000_000, engine: engine,
		want: verdict{visited: orbitStates, decided: []int{0, 1}, together: 2, complete: true},
	}
}

// byScale picks a spec for the repetition's scale.
func byScale(fullSpec, smokeSpec exploreSpec) func(scale) exploreSpec {
	return func(sc scale) exploreSpec {
		if sc == smoke {
			return smokeSpec
		}
		return fullSpec
	}
}

const (
	fullBudget  = 1_000_000
	smokeBudget = fullBudget / 50
)

var (
	levelsyncSpec = byScale(
		row3(fullBudget, check.EngineOptions{Workers: 1}),
		row3(smokeBudget, check.EngineOptions{Workers: 1}))
	levelsync2wSpec = byScale(
		row3(fullBudget, check.EngineOptions{Workers: 2}),
		row3(smokeBudget, check.EngineOptions{Workers: 2}))
	// A budget-truncated async run visits the budget but not a fixed
	// set, so only the count and the absence of a violation are pinned.
	asyncSpec = byScale(
		anyDecided(row3(fullBudget, check.EngineOptions{Workers: 2, Order: check.OrderAsync})),
		anyDecided(row3(smokeBudget, check.EngineOptions{Workers: 2, Order: check.OrderAsync})))
	// 4 MiB resident against a ~140 MB visited set: nearly everything
	// spills. The smoke budget keeps the same ratio.
	spillSpec = byScale(
		row3(fullBudget, check.EngineOptions{Workers: 1, Store: check.StoreSpill, MemBudget: 4 << 20}),
		row3(smokeBudget, check.EngineOptions{Workers: 1, Store: check.StoreSpill, MemBudget: 4 << 20 / 50}))
	reduceSpec = byScale(
		toyBit(7, 1_784_840, check.EngineOptions{Workers: 2, Reduction: check.ReduceSymSleep}),
		toyBit(4, 17_263, check.EngineOptions{Workers: 2, Reduction: check.ReduceSymSleep}))
	reduceSymSpec = byScale(
		toyBit(7, 1_784_840, check.EngineOptions{Workers: 2, Reduction: check.ReduceSym}),
		toyBit(4, 17_263, check.EngineOptions{Workers: 2, Reduction: check.ReduceSym}))
	distSpec = byScale(
		withPeers(row3(fullBudget/2, check.EngineOptions{Workers: 1}), 2),
		withPeers(row3(smokeBudget/2, check.EngineOptions{Workers: 1}), 2))
	// The single-process run explore-dist is compared against: the same
	// budget and the same total worker count.
	distRefSpec = byScale(
		row3(fullBudget/2, check.EngineOptions{Workers: 2}),
		row3(smokeBudget/2, check.EngineOptions{Workers: 2}))
)

func withPeers(s exploreSpec, peers int) exploreSpec {
	s.peers = peers
	return s
}

func anyDecided(s exploreSpec) exploreSpec {
	s.want.decided, s.want.together = nil, 0
	return s
}

// instance is a spec made concrete in set-up: the protocol built and
// the seed's input permutation applied.
type instance struct {
	spec   exploreSpec
	p      model.Protocol
	inputs []int
	cfg    *model.Config
	pids   []int
}

func (s exploreSpec) build(r *rep) (*instance, error) {
	p, err := s.proto()
	if err != nil {
		return nil, err
	}
	inputs := r.permute(s.inputs)
	cfg, err := model.NewConfig(p, inputs)
	if err != nil {
		return nil, err
	}
	pids := make([]int, p.NumProcesses())
	for i := range pids {
		pids[i] = i
	}
	return &instance{spec: s, p: p, inputs: inputs, cfg: cfg, pids: pids}, nil
}

// levelTrace turns the engine's Progress reports into check.level spans
// under one layer call and tracks the longest gap between reports. It
// is installed on traced repetitions only.
type levelTrace struct {
	r      *rep
	parent int
	last   time.Time
	levels int
	maxGap time.Duration
	first  time.Duration // call start to first report
}

// traceLevels installs a levelTrace on eng when the repetition is
// traced, and returns nil otherwise.
func (r *rep) traceLevels(parent int, eng *check.EngineOptions) *levelTrace {
	if !r.traced() {
		return nil
	}
	lt := &levelTrace{r: r, parent: parent, last: time.Now()}
	eng.Progress = lt.progress
	return lt
}

func (lt *levelTrace) progress(pr check.Progress) {
	now := time.Now()
	gap := now.Sub(lt.last)
	if lt.levels == 0 {
		lt.first = gap
	}
	lt.maxGap = max(lt.maxGap, gap)
	lt.levels++
	lt.r.rec.add(lt.parent, 0, "check.level", lt.last, now, map[string]string{
		"depth": strconv.Itoa(pr.Depth), "frontier": strconv.Itoa(pr.FrontierSize),
		"processed": strconv.Itoa(pr.Processed)})
	lt.last = now
}

// explore runs the instance once under eng, through the layer's
// exported entry point.
func (in *instance) explore(eng check.EngineOptions) (*check.ExploreResult, error) {
	opts := check.ExploreOptions{Limits: check.ExploreLimits{MaxConfigs: in.spec.budget}, Engine: eng}
	if in.spec.peers > 0 {
		return dist.LoopbackExplore(context.Background(), in.p, in.inputs, in.spec.k, opts, in.spec.peers)
	}
	return check.ExploreOpts(in.p, in.cfg, in.pids, in.spec.k, opts)
}

// verify checks a result against the spec's pinned verdict as one
// operation.
func (in *instance) verify(r *rep, what string, res *check.ExploreResult, err error) {
	if err != nil {
		r.check(false, "%s: %v", what, err)
		return
	}
	got := verdict{visited: res.Visited, complete: res.Complete}
	if in.spec.want.decided != nil {
		got.decided = append([]int{}, res.DecidedValues...)
		got.together = res.MaxDecidedTogether
	}
	ok := reflect.DeepEqual(got, in.spec.want) && res.AgreementViolation == nil
	r.check(ok, "%s: verdict %+v (violation %v), want %+v and none",
		what, got, res.AgreementViolation != nil, in.spec.want)
}

// checkLayers records the counters every exploration exposes.
func (r *rep) checkLayers(res *check.ExploreResult, lt *levelTrace) {
	states := float64(res.Visited)
	r.layer["check.visited"] = states
	r.layer["check.states_per_s"] = states / r.wall.Seconds()
	r.layer["check.cpu_s_per_mstate"] = r.cpu.Seconds() / states * 1e6
	r.layer["check.async_steals"] = float64(res.Async.Steals)
	r.layer["check.async_quiescence_scans"] = float64(res.Async.QuiescenceScans)
	if lt != nil {
		r.layer["check.levels"] = float64(lt.levels)
		r.layer["check.level_max_s"] = lt.maxGap.Seconds()
	}
	if r.traced() {
		r.layer["check.allocs_per_state"] = float64(r.mallocs) / states
		r.layer["check.alloc_bytes_per_state"] = float64(r.allocBytes) / states
		if r.totalCPU > 0 {
			r.layer["check.gc_cpu_frac"] = r.gcCPU / r.totalCPU
		}
	}
}

// runExplore is the workload body shared by the five explore-*
// workloads and their reference runs: build, one timed exploration
// through layerCall, verify, then the workload's own layer through
// extra (io is what the timed call read and wrote).
func runExplore(spec func(scale) exploreSpec, layerCall string, extra func(r *rep, in *instance, res *check.ExploreResult, io procIO)) func(*rep) {
	return func(r *rep) {
		in, err := spec(r.scale).build(r)
		if err != nil {
			r.check(false, "set-up: %v", err)
			return
		}
		eng := in.spec.engine
		if eng.Store == check.StoreSpill {
			eng.SpillDir = filepath.Join(r.dir, "spill")
			if err := os.MkdirAll(eng.SpillDir, 0o755); err != nil {
				r.check(false, "set-up: %v", err)
				return
			}
		}
		io0 := readProcIO()
		var res *check.ExploreResult
		var lt *levelTrace
		err = r.timed(layerCall, func(span int) error {
			lt = r.traceLevels(span, &eng)
			var err error
			res, err = in.explore(eng)
			return err
		})
		io1 := readProcIO()
		in.verify(r, layerCall, res, err)
		if err != nil {
			return
		}
		r.checkLayers(res, lt)
		if extra != nil {
			extra(r, in, res, procIO{rchar: io1.rchar - io0.rchar, wchar: io1.wchar - io0.wchar})
		}
	}
}

func spillLayers(r *rep, _ *instance, res *check.ExploreResult, io procIO) {
	st := res.Store
	r.check(st.Kind == check.StoreSpill && st.BytesSpilled > 0,
		"explore-spill: store %q spilled %d bytes, want a spill", st.Kind, st.BytesSpilled)
	r.layer["store.spill_bytes_per_state"] = float64(st.BytesSpilled) / float64(res.Visited)
	r.layer["store.runs_written"] = float64(st.RunsWritten)
	r.layer["store.runs_merged"] = float64(st.RunsMerged)
	r.layer["store.prefilter_hits"] = float64(st.PrefilterHits)
	r.layer["store.peak_resident_bytes"] = float64(st.PeakResidentBytes)
	r.layer["store.io_write_bytes"] = float64(io.wchar)
	r.layer["store.io_read_bytes"] = float64(io.rchar)
}

func reduceLayers(r *rep, _ *instance, res *check.ExploreResult, _ procIO) {
	rd := res.Reduction
	r.check(rd.StatesPruned > 0, "explore-reduce: nothing pruned on a symmetric instance")
	r.layer["reduce.states_pruned"] = float64(rd.StatesPruned)
	r.layer["reduce.orbit_hits"] = float64(rd.OrbitHits)
	r.layer["reduce.sleep_skipped"] = float64(rd.SleepSkipped)
	r.layer["reduce.pruned_per_visited"] = float64(rd.StatesPruned) / float64(res.Visited)
}

func distLayers(r *rep, in *instance, res *check.ExploreResult, _ procIO) {
	n := res.Net
	r.check(n.Peers == in.spec.peers && n.PeersLost == 0 && n.Retries == 0,
		"explore-dist: peers %d lost %d retries %d, want %d 0 0", n.Peers, n.PeersLost, n.Retries, in.spec.peers)
	r.layer["dist.net_bytes_per_state"] = float64(n.BytesSent) / float64(res.Visited)
	r.layer["dist.batches"] = float64(n.BatchesSent)
	r.layer["dist.peer_stalls"] = float64(n.PeerStalls)
	r.layer["dist.retries"] = float64(n.Retries)
	r.layer["dist.peers_lost"] = float64(n.PeersLost)
}

// oraclePrecheck is the part of every repetition's set-up that checks
// the engine against its reference implementations before anything is
// timed: the frontier engine against the sequential string-keyed
// explorer on the row-3 instance at 20k configurations, and the async
// order against levelsync on the exhaustive 4-process toy-bit race
// (smoke: 400 configurations, 3 processes).
func oraclePrecheck(r *rep) {
	budget, toy := smokeBudget, toyBit(4, 60_567, check.EngineOptions{})
	if r.scale == smoke {
		budget, toy = smokeBudget/50, toyBit(3, 4_043, check.EngineOptions{})
	}
	in, err := row3(budget, check.EngineOptions{Workers: 1}).build(r)
	if err != nil {
		r.check(false, "pre-check set-up: %v", err)
		return
	}
	limits := check.ExploreLimits{MaxConfigs: budget}
	seq := check.ExploreSequential(in.p, in.cfg, in.pids, 1, limits)
	eng, err := check.ExploreOpts(in.p, in.cfg, in.pids, 1, check.ExploreOptions{Limits: limits, Engine: in.spec.engine})
	r.check(err == nil && eng.Visited == seq.Visited && reflect.DeepEqual(eng.DecidedValues, seq.DecidedValues),
		"pre-check: engine disagrees with ExploreSequential on row 3 (err %v)", err)

	toyIn, err := toy.build(r)
	if err != nil {
		r.check(false, "pre-check set-up: %v", err)
		return
	}
	for _, eng := range []check.EngineOptions{{Workers: 1}, {Workers: 2, Order: check.OrderAsync}} {
		res, err := toyIn.explore(eng)
		toyIn.verify(r, fmt.Sprintf("pre-check toy-bit order=%q", eng.Order), res, err)
	}
}

// procIO is the part of /proc/self/io the store metrics use: bytes
// passed to read and write system calls. They count the store's I/O
// whether or not the page cache absorbed it, so they repeat from run to
// run where the block-layer counters would not.
type procIO struct{ rchar, wchar int64 }

func readProcIO() procIO {
	var io procIO
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return io
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(val, 10, 64)
		switch name {
		case "rchar":
			io.rchar = n
		case "wchar":
			io.wchar = n
		}
	}
	return io
}
