package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// TestSoloDecidesOwnInput: a process running alone from the initial
// configuration must decide its own input (validity + obstruction-freedom)
// within the Lemma 8 bound of 8(n-k) swaps.
func TestSoloDecidesOwnInput(t *testing.T) {
	for _, params := range []core.Params{
		{N: 2, K: 1, M: 2},
		{N: 3, K: 1, M: 2},
		{N: 5, K: 2, M: 3},
		{N: 8, K: 3, M: 4},
		{N: 9, K: 1, M: 5},
		{N: 6, K: 5, M: 6},
	} {
		p := core.MustNew(params)
		for input := 0; input < params.M; input++ {
			for pid := 0; pid < params.N; pid += params.N - 1 {
				inputs := make([]int, params.N)
				for i := range inputs {
					inputs[i] = (input + i) % params.M
				}
				inputs[pid] = input
				c := model.MustNewConfig(p, inputs)
				res, err := check.SoloRun(p, c, pid, params.SoloStepBound())
				if err != nil {
					t.Fatalf("%s pid=%d input=%d: %v", p.Name(), pid, input, err)
				}
				if v := res.Decisions[pid]; v != input {
					t.Errorf("%s: p%d decided %d solo, want own input %d", p.Name(), pid, v, input)
				}
				if res.Steps > params.SoloStepBound() {
					t.Errorf("%s: solo run took %d steps, Lemma 8 bound %d", p.Name(), res.Steps, params.SoloStepBound())
				}
			}
		}
	}
}

// TestLemma8SoloBoundFromReachableConfigurations: from configurations
// reached under random contention, every solo run finishes within 8(n-k)
// swaps.
func TestLemma8SoloBoundFromReachableConfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, params := range []core.Params{
		{N: 3, K: 1, M: 2},
		{N: 4, K: 1, M: 3},
		{N: 5, K: 2, M: 3},
		{N: 7, K: 3, M: 4},
	} {
		p := core.MustNew(params)
		bound := params.SoloStepBound()
		for trial := 0; trial < 50; trial++ {
			inputs := make([]int, params.N)
			for i := range inputs {
				inputs[i] = rng.Intn(params.M)
			}
			c := model.MustNewConfig(p, inputs)
			warm := rng.Intn(40 * params.N)
			r, err := check.Run(p, c, sched.NewRandom(rng.Int63()), warm)
			if err != nil && r == nil {
				t.Fatal(err)
			}
			active := c.Active(p)
			if len(active) == 0 {
				continue
			}
			pid := active[rng.Intn(len(active))]
			res, err := check.SoloRun(p, c, pid, bound)
			if err != nil {
				t.Fatalf("%s trial %d: solo run of p%d exceeded Lemma 8 bound %d: %v",
					p.Name(), trial, pid, bound, err)
			}
			if res.Steps > bound {
				t.Errorf("%s: %d solo steps > bound %d", p.Name(), res.Steps, bound)
			}
		}
	}
}

// TestAgreementValidityUnderAdversarialSchedules stresses k-agreement and
// validity under random contention followed by solo finishes.
func TestAgreementValidityUnderAdversarialSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, params := range []core.Params{
		{N: 2, K: 1, M: 2},
		{N: 3, K: 1, M: 2},
		{N: 4, K: 1, M: 4},
		{N: 4, K: 2, M: 3},
		{N: 5, K: 2, M: 3},
		{N: 6, K: 3, M: 4},
		{N: 6, K: 1, M: 2},
		{N: 7, K: 4, M: 5},
	} {
		p := core.MustNew(params)
		for trial := 0; trial < 40; trial++ {
			inputs := make([]int, params.N)
			for i := range inputs {
				inputs[i] = rng.Intn(params.M)
			}
			c := model.MustNewConfig(p, inputs)
			steps := rng.Intn(80 * params.N)
			r, err := check.Run(p, c, sched.NewRandom(rng.Int63()), steps)
			if err != nil && r == nil {
				t.Fatal(err)
			}
			for _, pid := range rng.Perm(params.N) {
				if _, done := c.Decided(p, pid); done {
					continue
				}
				if _, err := check.SoloRun(p, c, pid, params.SoloStepBound()); err != nil {
					t.Fatalf("%s trial %d: %v", p.Name(), trial, err)
				}
			}
			res := &check.Result{Final: c, Decisions: map[int]int{}}
			for pid := 0; pid < params.N; pid++ {
				v, ok := c.Decided(p, pid)
				if !ok {
					t.Fatalf("%s: p%d undecided after solo finish", p.Name(), pid)
				}
				res.Decisions[pid] = v
			}
			if err := check.CheckAll(res, params.K, inputs); err != nil {
				t.Fatalf("%s trial %d: %v", p.Name(), trial, err)
			}
		}
	}
}

// TestRoundRobinTerminatesAndAgrees: with a quantum at least the Lemma 8
// solo bound, each scheduled process effectively runs solo long enough to
// decide, so round-robin terminates and agrees. (Quantum 1 — strict
// alternation — is the classic adversary that livelocks obstruction-free
// algorithms; TestStrictAlternationLivelocks covers it.)
func TestRoundRobinTerminatesAndAgrees(t *testing.T) {
	for _, params := range []core.Params{
		{N: 2, K: 1, M: 2},
		{N: 3, K: 2, M: 3},
		{N: 4, K: 2, M: 2},
	} {
		p := core.MustNew(params)
		inputs := make([]int, params.N)
		for i := range inputs {
			inputs[i] = i % params.M
		}
		res, err := check.RunFromInputs(p, inputs, &sched.RoundRobin{Quantum: params.SoloStepBound()}, 100000)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := check.CheckAll(res, params.K, inputs); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(res.Decisions) != params.N {
			t.Errorf("%s: only %d processes decided", p.Name(), len(res.Decisions))
		}
	}
}

// TestStrictAlternationLivelocks demonstrates why Algorithm 1 is only
// obstruction-free: under strict alternation with different preferences,
// every swap returns the other process's pair, so no process ever
// completes a conflict-free lap and nobody decides. This is the schedule
// on which wait-freedom would fail, exactly as the model predicts.
func TestStrictAlternationLivelocks(t *testing.T) {
	p := core.MustNew(core.Params{N: 2, K: 1, M: 2})
	c := model.MustNewConfig(p, []int{0, 1})
	r, err := check.Run(p, c, &sched.RoundRobin{Quantum: 1}, 10000)
	if err == nil {
		t.Fatalf("strict alternation terminated with decisions %v; expected livelock", r.Decisions)
	}
	if len(c.DecidedValues(p)) != 0 {
		t.Fatalf("a process decided under strict alternation: %v", c.DecidedValues(p))
	}
}

// TestAlternateAdversaryStallsButSoloFinishes: the alternating two-group
// adversary keeps Algorithm 1 racing (no decision) — the reason it is only
// obstruction-free — yet any process finishes solo afterwards.
func TestAlternateAdversaryStallsButSoloFinishes(t *testing.T) {
	params := core.Params{N: 2, K: 1, M: 2}
	p := core.MustNew(params)
	inputs := []int{0, 1}
	c := model.MustNewConfig(p, inputs)
	adversary := &sched.Alternate{A: []int{0}, B: []int{1}, PeriodA: 1, PeriodB: 1}
	r, err := check.Run(p, c, adversary, 400)
	if err == nil {
		// The adversary may fail to stall forever (it is not the optimal
		// one); what must never happen is disagreement.
		res := &check.Result{Final: c, Decisions: r.Decisions}
		if err := check.CheckAll(res, 1, inputs); err != nil {
			t.Fatal(err)
		}
		return
	}
	// Stalled as expected: both processes still undecided after 400 steps.
	for pid := 0; pid < 2; pid++ {
		if _, done := c.Decided(p, pid); done {
			continue
		}
		if _, err := check.SoloRun(p, c, pid, params.SoloStepBound()); err != nil {
			t.Fatalf("solo finish after stall: %v", err)
		}
	}
	res := &check.Result{Final: c, Decisions: map[int]int{}}
	for pid := 0; pid < 2; pid++ {
		v, ok := c.Decided(p, pid)
		if !ok {
			t.Fatalf("p%d undecided", pid)
		}
		res.Decisions[pid] = v
	}
	if err := check.CheckAll(res, 1, inputs); err != nil {
		t.Fatal(err)
	}
}

// TestInitialBivalence: with split inputs the full process set is bivalent
// in the initial configuration (each process's solo run decides its own
// input), matching Observation 12's shape.
func TestInitialBivalence(t *testing.T) {
	p := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	c := model.MustNewConfig(p, []int{0, 1, 1})
	v := check.ValencyFromResult(check.Explore(p, c, []int{0, 1, 2}, 0, check.ExploreLimits{MaxConfigs: 20000}))
	if v.Class != check.Bivalent {
		t.Fatalf("initial configuration classified %v (values %v), want bivalent", v.Class, v.Values)
	}
}

// TestDecidedConfigurationIsUnivalent: after every process decides, the
// set is univalent (complete exploration of the empty continuation).
func TestDecidedConfigurationIsUnivalent(t *testing.T) {
	params := core.Params{N: 2, K: 1, M: 2}
	p := core.MustNew(params)
	inputs := []int{1, 1}
	c := model.MustNewConfig(p, inputs)
	if _, err := check.Run(p, c, &sched.RoundRobin{Quantum: params.SoloStepBound()}, 100000); err != nil {
		t.Fatal(err)
	}
	v := check.ValencyFromResult(check.Explore(p, c, []int{0, 1}, 0, check.ExploreLimits{}))
	if v.Class != check.Univalent {
		t.Fatalf("fully decided configuration classified %v, want univalent", v.Class)
	}
	if len(v.Values) != 1 || v.Values[0] != 1 {
		t.Fatalf("values %v, want [1]", v.Values)
	}
}

// TestReadableVariantBehavesIdentically: Algorithm 1 over readable swap
// objects takes exactly the same steps as over plain swap objects (it
// never invokes Read).
func TestReadableVariantBehavesIdentically(t *testing.T) {
	plain := core.MustNew(core.Params{N: 4, K: 2, M: 3})
	readable := core.MustNew(core.Params{N: 4, K: 2, M: 3, Readable: true})
	inputs := []int{0, 1, 2, 0}
	rngSeed := int64(5)

	resA, err := check.RunFromInputs(plain, inputs, sched.NewRandom(rngSeed), 5000)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := check.RunFromInputs(readable, inputs, sched.NewRandom(rngSeed), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Execution) != len(resB.Execution) {
		t.Fatalf("executions diverge in length: %d vs %d", len(resA.Execution), len(resB.Execution))
	}
	for i := range resA.Execution {
		if resA.Execution[i].Op.Key() != resB.Execution[i].Op.Key() {
			t.Fatalf("step %d diverges: %v vs %v", i, resA.Execution[i], resB.Execution[i])
		}
	}
}

// TestValidityExhaustiveSmall: every reachable decision in the n=2
// explorable prefix is an input (validity over the whole bounded space).
func TestValidityExhaustiveSmall(t *testing.T) {
	p := core.MustNew(core.Params{N: 2, K: 1, M: 3})
	inputs := []int{2, 1}
	c := model.MustNewConfig(p, inputs)
	res := check.Explore(p, c, []int{0, 1}, 1, check.ExploreLimits{MaxConfigs: 30000, MaxDepth: 60})
	for _, v := range res.DecidedValues {
		if v != 1 && v != 2 {
			t.Errorf("explored decision %d is not an input of %v", v, inputs)
		}
	}
	if res.AgreementViolation != nil {
		t.Error("agreement violation found in bounded exploration")
	}
}
