package check_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
)

// symRace is an anonymous single-swap race: every process swaps its input
// into the object and decides the response (its own input if it swapped
// first). States and object values carry no process identity, so the
// protocol is symmetric in any set of processes sharing an input — the
// soundness condition of model.ProcessSymmetric, which it declares (the
// engine refines the class by input).
type symRace struct{ n int }

type symSt struct {
	in   int
	dec  int
	done bool
}

func (s symSt) Key() string { return fmt.Sprintf("sym:%d:%v:%d", s.in, s.done, s.dec) }

func (p symRace) Name() string      { return fmt.Sprintf("sym-race(n=%d)", p.n) }
func (p symRace) NumProcesses() int { return p.n }
func (p symRace) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{{Type: model.SwapType{}, Init: model.Nil{}}}
}
func (p symRace) Init(pid, input int) model.State { return symSt{in: input, dec: -1} }
func (p symRace) Poised(pid int, st model.State) (model.Op, bool) {
	s := st.(symSt)
	if s.done {
		return model.Op{}, false
	}
	return model.Op{Object: 0, Kind: model.OpSwap, Arg: model.Int(s.in)}, true
}
func (p symRace) Observe(pid int, st model.State, resp model.Value) model.State {
	s := st.(symSt)
	if _, isNil := resp.(model.Nil); isNil {
		s.dec = s.in
	} else {
		s.dec = int(resp.(model.Int))
	}
	s.done = true
	return s
}
func (p symRace) Decision(st model.State) (int, bool) {
	s := st.(symSt)
	return s.dec, s.done
}
func (p symRace) SymmetryClasses() [][]int { return model.SingleClass(p.n) }

// exploreT runs ExploreOpts, failing the test on engine errors (the
// instances here are known-good, so any error is a harness regression).
func exploreT(t *testing.T, p model.Protocol, c *model.Config, pids []int, k int, opts check.ExploreOptions) *check.ExploreResult {
	t.Helper()
	res, err := check.ExploreOpts(p, c, pids, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// classifyT is exploreT's valency class.
func classifyT(t *testing.T, p model.Protocol, c *model.Config, pids []int, opts check.ExploreOptions) *check.ValencyResult {
	t.Helper()
	return check.ValencyFromResult(exploreT(t, p, c, pids, 0, opts))
}

// exploreCase is one instance of the sequential-vs-parallel differential
// test matrix.
type exploreCase struct {
	name   string
	p      model.Protocol
	inputs []int
	pids   []int
	k      int
	limits check.ExploreLimits
}

func exploreCases(t *testing.T) []exploreCase {
	t.Helper()
	mk := func(n, k, m int) model.Protocol {
		p, err := core.New(core.Params{N: n, K: k, M: m})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []exploreCase{
		{"pair/2p", baseline.NewPairConsensus(2), []int{0, 1}, []int{0, 1}, 1, check.ExploreLimits{}},
		{"pair/3p-violation", baseline.NewPairConsensus(2).WithProcesses(3), []int{0, 1, 1}, []int{0, 1, 2}, 1, check.ExploreLimits{}},
		{"pair/restricted", baseline.NewPairConsensus(2), []int{0, 1}, []int{1}, 1, check.ExploreLimits{}},
		{"symrace/4p", symRace{n: 4}, []int{0, 0, 1, 1}, []int{0, 1, 2, 3}, 2, check.ExploreLimits{}},
		// Algorithm 1 has an infinite space; depth caps keep the reachable
		// prefix finite and identical for every explorer.
		{"alg1/n2k1m2", mk(2, 1, 2), []int{0, 1}, []int{0, 1}, 1, check.ExploreLimits{MaxDepth: 10}},
		{"alg1/n3k1m2", mk(3, 1, 2), []int{0, 1, 1}, []int{0, 1, 2}, 1, check.ExploreLimits{MaxDepth: 6}},
		{"alg1/n3k2m3", mk(3, 2, 3), []int{0, 1, 2}, []int{0, 1, 2}, 2, check.ExploreLimits{MaxDepth: 6}},
	}
}

// TestExploreParallelMatchesSequential is the equivalence test required
// by the engine refactor: on complete or depth-capped explorations, the
// parallel sharded explorer must visit exactly the same configuration set
// as the sequential string-key reference, for every worker count and both
// keying modes.
func TestExploreParallelMatchesSequential(t *testing.T) {
	for _, tc := range exploreCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := model.MustNewConfig(tc.p, tc.inputs)
			want := check.ExploreSequential(tc.p, c, tc.pids, tc.k, tc.limits)
			for _, workers := range []int{1, 2, 4} {
				for _, stringKeys := range []bool{false, true} {
					got := exploreT(t, tc.p, c, tc.pids, tc.k, check.ExploreOptions{
						Limits: tc.limits,
						Engine: check.EngineOptions{Workers: workers, StringKeys: stringKeys},
					})
					tag := fmt.Sprintf("workers=%d stringKeys=%v", workers, stringKeys)
					if got.Visited != want.Visited {
						t.Errorf("%s: Visited = %d, want %d", tag, got.Visited, want.Visited)
					}
					if got.Complete != want.Complete {
						t.Errorf("%s: Complete = %v, want %v", tag, got.Complete, want.Complete)
					}
					if !reflect.DeepEqual(got.DecidedValues, want.DecidedValues) {
						t.Errorf("%s: DecidedValues = %v, want %v", tag, got.DecidedValues, want.DecidedValues)
					}
					if got.MaxDecidedTogether != want.MaxDecidedTogether {
						t.Errorf("%s: MaxDecidedTogether = %d, want %d", tag, got.MaxDecidedTogether, want.MaxDecidedTogether)
					}
					if (got.AgreementViolation != nil) != (want.AgreementViolation != nil) {
						t.Errorf("%s: violation presence = %v, want %v", tag,
							got.AgreementViolation != nil, want.AgreementViolation != nil)
					}
				}
			}
		})
	}
}

// TestExploreDeterministicAcrossWorkers: every aggregate of the parallel
// explorer — including the chosen violation witness and budget-truncated
// runs — must be identical for every worker count.
func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	type snapshot struct {
		visited, maxTogether int
		complete             bool
		decided              []int
		violationKey         string
	}
	run := func(p model.Protocol, inputs, pids []int, k int, limits check.ExploreLimits, workers int) snapshot {
		c := model.MustNewConfig(p, inputs)
		res := exploreT(t, p, c, pids, k, check.ExploreOptions{
			Limits: limits,
			Engine: check.EngineOptions{Workers: workers},
		})
		s := snapshot{visited: res.Visited, maxTogether: res.MaxDecidedTogether,
			complete: res.Complete, decided: res.DecidedValues}
		if res.AgreementViolation != nil {
			s.violationKey = res.AgreementViolation.Key()
		}
		return s
	}

	cases := []struct {
		name   string
		p      model.Protocol
		inputs []int
		pids   []int
		k      int
		limits check.ExploreLimits
	}{
		{"violation-witness", baseline.NewPairConsensus(2).WithProcesses(3), []int{0, 1, 1}, []int{0, 1, 2}, 1, check.ExploreLimits{}},
		{"budget-truncated", core.MustNew(core.Params{N: 3, K: 1, M: 2}), []int{0, 1, 0}, []int{0, 1, 2}, 1, check.ExploreLimits{MaxConfigs: 200}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := run(tc.p, tc.inputs, tc.pids, tc.k, tc.limits, 1)
			for _, workers := range []int{2, 3, 8} {
				got := run(tc.p, tc.inputs, tc.pids, tc.k, tc.limits, workers)
				if !reflect.DeepEqual(got, base) {
					t.Errorf("workers=%d: %+v != workers=1: %+v", workers, got, base)
				}
			}
		})
	}
}

// TestValencyDeterministicAcrossWorkers: the valency class read off an
// exploration agrees with itself for every worker count on both bivalent and
// univalent instances.
func TestValencyDeterministicAcrossWorkers(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	split := model.MustNewConfig(p, []int{0, 1})
	unanimous := model.MustNewConfig(p, []int{1, 1})
	for _, workers := range []int{1, 2, 4} {
		opts := check.ExploreOptions{Engine: check.EngineOptions{Workers: workers}}
		if got := classifyT(t, p, split, []int{0, 1}, opts); got.Class != check.Bivalent {
			t.Errorf("workers=%d: split inputs %v, want bivalent", workers, got.Class)
		}
		got := classifyT(t, p, unanimous, []int{0, 1}, opts)
		if got.Class != check.Univalent || !reflect.DeepEqual(got.Values, []int{1}) {
			t.Errorf("workers=%d: unanimous inputs %v %v, want univalent [1]", workers, got.Class, got.Values)
		}
	}
}

// TestObstructionFreeDeterministicAcrossWorkers: the ported
// obstruction-freedom verifier reports identical coverage counts for
// every worker count.
func TestObstructionFreeDeterministicAcrossWorkers(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	base, err := check.CheckObstructionFreeOpts(p, []int{0, 1},
		check.ExploreOptions{Engine: check.EngineOptions{Workers: 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := check.CheckObstructionFreeOpts(p, []int{0, 1},
			check.ExploreOptions{Engine: check.EngineOptions{Workers: workers}}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: %+v != %+v", workers, got, base)
		}
	}
}

// TestSymmetryQuotientShrinksSpace: exploring the anonymous race under
// the symmetry reduction visits strictly fewer configurations than the
// exact explorer while reaching the same decided values — the quotient
// collapses pid-permuted duplicates, not behaviour.
func TestSymmetryQuotientShrinksSpace(t *testing.T) {
	p := symRace{n: 4}
	inputs := []int{0, 0, 1, 1}
	pids := []int{0, 1, 2, 3}
	c := model.MustNewConfig(p, inputs)

	exact := check.Explore(p, c, pids, 2, check.ExploreLimits{})
	// Processes 0,1 share input 0 and 2,3 share input 1; the declared
	// single class refines into those two same-input classes.
	quotient := exploreT(t, p, c, pids, 2, check.ExploreOptions{
		Engine: check.EngineOptions{Reduction: check.ReduceSym},
	})
	if !exact.Complete || !quotient.Complete {
		t.Fatalf("both explorations should complete (exact %v, quotient %v)", exact.Complete, quotient.Complete)
	}
	if quotient.Visited >= exact.Visited {
		t.Errorf("quotient visited %d, want < exact %d", quotient.Visited, exact.Visited)
	}
	if !reflect.DeepEqual(quotient.DecidedValues, exact.DecidedValues) {
		t.Errorf("quotient decided %v, exact decided %v", quotient.DecidedValues, exact.DecidedValues)
	}
}

// TestEngineProgressCallback: the Progress hook fires once per level with
// monotone cumulative counts.
func TestEngineProgressCallback(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{0, 1})
	var reports []check.Progress
	exploreT(t, p, c, []int{0, 1}, 1, check.ExploreOptions{
		Engine: check.EngineOptions{Progress: func(pr check.Progress) { reports = append(reports, pr) }},
	})
	if len(reports) == 0 {
		t.Fatal("progress callback never fired")
	}
	prev := 0
	for i, r := range reports {
		if r.Depth != i {
			t.Errorf("report %d: Depth = %d, want %d", i, r.Depth, i)
		}
		if r.Processed <= prev {
			t.Errorf("report %d: Processed = %d, not monotone (prev %d)", i, r.Processed, prev)
		}
		prev = r.Processed
	}
}

// TestFrontierBatchedDedupRace exercises the claim path under maximal
// goroutine churn: many workers claiming under the one lock, both keying
// modes, and a budget small enough to trigger the truncation path. Run
// with -race (CI does) it is the data-race detector for the claim lock and
// node recycling.
func TestFrontierBatchedDedupRace(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	c := model.MustNewConfig(p, []int{0, 1, 2, 0})
	pids := []int{0, 1, 2, 3}

	want := check.ExploreSequential(p, c, pids, 1, check.ExploreLimits{MaxDepth: 8})
	for _, stringKeys := range []bool{false, true} {
		for _, limits := range []check.ExploreLimits{
			{MaxDepth: 8},                  // level-parallel, no truncation
			{MaxDepth: 8, MaxConfigs: 700}, // budget truncation mid-run
		} {
			got := exploreT(t, p, c, pids, 1, check.ExploreOptions{
				Limits: limits,
				Engine: check.EngineOptions{Workers: 8, StringKeys: stringKeys},
			})
			if limits.MaxConfigs == 0 {
				if got.Visited != want.Visited || got.Complete != want.Complete {
					t.Errorf("stringKeys=%v: visited %d complete %v, want %d %v",
						stringKeys, got.Visited, got.Complete, want.Visited, want.Complete)
				}
			} else {
				if got.Visited != limits.MaxConfigs || got.Complete {
					t.Errorf("stringKeys=%v truncated: visited %d complete %v, want exactly %d and incomplete",
						stringKeys, got.Visited, got.Complete, limits.MaxConfigs)
				}
			}
		}
	}
}

// TestRunFrontierSchedules: Node.Path replays to the node's own
// configuration — the provenance chains the engine maintains are real
// executions.
func TestRunFrontierSchedules(t *testing.T) {
	p := baseline.NewPairConsensus(2).WithProcesses(3)
	start := model.MustNewConfig(p, []int{0, 1, 1})
	err := error(nil)
	_, err = check.RunFrontier(p, start, []int{0, 1, 2}, check.ExploreLimits{}, check.EngineOptions{Workers: 2, Provenance: true},
		func(_ int, n *check.Node, v *check.View) error {
			cfg := v.Config()
			replay, err := model.Replay(p, start, n.Path())
			if err != nil {
				return fmt.Errorf("replaying path %v: %w", n.Path(), err)
			}
			if replay.Key() != cfg.Key() {
				return fmt.Errorf("path %v replays to %q, node holds %q", n.Path(), replay.Key(), cfg.Key())
			}
			return nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
