package check_test

import (
	"errors"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sched"
)

// --- Run / SoloRun semantics ---

func TestRunTerminatesWhenAllDecide(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{0, 1})
	res, err := check.Run(p, c, &sched.RoundRobin{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 {
		t.Fatalf("Steps = %d, want 2", res.Steps)
	}
	if len(res.Execution) != 2 {
		t.Fatalf("Execution has %d records, want 2", len(res.Execution))
	}
	if res.Final != c {
		t.Fatal("Final should be the (mutated) input configuration")
	}
}

func TestRunStepLimit(t *testing.T) {
	// Algorithm 1 under round-robin contention with a tiny budget cannot
	// finish; the run must surface ErrStepLimit rather than hang.
	a1 := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	c := model.MustNewConfig(a1, []int{0, 1, 1})
	_, err := check.Run(a1, c, &sched.RoundRobin{}, 5)
	if !errors.Is(err, check.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit", err)
	}
}

func TestRunSchedulerExhaustionEndsCleanly(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	c := model.MustNewConfig(a1, []int{0, 1, 1})
	res, err := check.Run(a1, c, &sched.Replay{Pids: []int{0, 1, 2}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 3 {
		t.Fatalf("Steps = %d, want 3 (replay exhausted)", res.Steps)
	}
}

func TestRunFromInputs(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	res, err := check.RunFromInputs(p, []int{1, 1}, &sched.RoundRobin{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DecidedValues(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DecidedValues = %v, want [1]", got)
	}
}

func TestSoloRunDecides(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	c := model.MustNewConfig(a1, []int{0, 1, 0, 1})
	res, err := check.SoloRun(a1, c, 2, a1.Params().SoloStepBound())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := res.Decisions[2]; !ok || v != 0 {
		t.Fatalf("solo run of p2 decided %v (%v), want its input 0", v, ok)
	}
	// Only p2 took steps.
	if parts := res.Execution.Participants(); len(parts) != 1 || parts[0] != 2 {
		t.Fatalf("participants = %v, want [2]", parts)
	}
}

func TestSoloRunRespectsBound(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	c := model.MustNewConfig(a1, []int{0, 1, 0, 1})
	_, err := check.SoloRun(a1, c, 0, 2)
	if !errors.Is(err, check.ErrStepLimit) {
		t.Fatalf("err = %v, want ErrStepLimit for a 2-step budget", err)
	}
}

// --- Correctness oracles ---

func TestCheckAgreement(t *testing.T) {
	res := &check.Result{Decisions: map[int]int{0: 1, 1: 1, 2: 2}}
	if err := check.CheckAgreement(res, 2); err != nil {
		t.Errorf("2 values within k=2: %v", err)
	}
	if err := check.CheckAgreement(res, 1); err == nil {
		t.Error("2 values with k=1 should fail")
	}
}

func TestCheckValidity(t *testing.T) {
	res := &check.Result{Decisions: map[int]int{0: 1, 1: 3}}
	if err := check.CheckValidity(res, []int{1, 3, 0}); err != nil {
		t.Errorf("decisions are inputs: %v", err)
	}
	if err := check.CheckValidity(res, []int{1, 0}); err == nil {
		t.Error("decision 3 is not an input; validity should fail")
	}
}

func TestCheckAll(t *testing.T) {
	res := &check.Result{Decisions: map[int]int{0: 0, 1: 0}}
	if err := check.CheckAll(res, 1, []int{0, 1}); err != nil {
		t.Errorf("valid unanimous run: %v", err)
	}
	bad := &check.Result{Decisions: map[int]int{0: 0, 1: 1}}
	if err := check.CheckAll(bad, 1, []int{0, 1}); err == nil {
		t.Error("two values with k=1 should fail CheckAll")
	}
}

// --- Explore ---

func TestExploreCompleteOnWaitFreeProtocol(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{0, 1})
	res := check.Explore(p, c, []int{0, 1}, 1, check.ExploreLimits{})
	if !res.Complete {
		t.Fatal("pair consensus has a finite execution space; exploration must complete")
	}
	// Both orders are explored, so both values are decidable overall...
	if got := res.DecidedValues; len(got) != 2 {
		t.Fatalf("DecidedValues = %v, want both 0 and 1 across branches", got)
	}
	// ...but never together in one configuration.
	if res.MaxDecidedTogether != 1 {
		t.Fatalf("MaxDecidedTogether = %d, want 1", res.MaxDecidedTogether)
	}
	if res.AgreementViolation != nil {
		t.Fatal("correct protocol should have no agreement violation")
	}
}

func TestExploreFindsViolation(t *testing.T) {
	p := baseline.NewPairConsensus(2).WithProcesses(3)
	c := model.MustNewConfig(p, []int{0, 1, 1})
	res := check.Explore(p, c, []int{0, 1, 2}, 1, check.ExploreLimits{})
	if res.AgreementViolation == nil {
		t.Fatal("3 processes on one swap object must violate agreement somewhere")
	}
	if res.MaxDecidedTogether < 2 {
		t.Fatalf("MaxDecidedTogether = %d, want >= 2", res.MaxDecidedTogether)
	}
}

func TestExploreRespectsRestriction(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{0, 1})
	// Only p1 may run: the space is p1's solo execution, deciding 1.
	res := check.Explore(p, c, []int{1}, 1, check.ExploreLimits{})
	if !res.Complete {
		t.Fatal("solo space must be finite")
	}
	if len(res.DecidedValues) != 1 || res.DecidedValues[0] != 1 {
		t.Fatalf("DecidedValues = %v, want [1]", res.DecidedValues)
	}
}

func TestExploreBudgetExhaustion(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	c := model.MustNewConfig(a1, []int{0, 1, 0})
	res := check.Explore(a1, c, []int{0, 1, 2}, 1, check.ExploreLimits{MaxConfigs: 50})
	if res.Complete {
		t.Fatal("Algorithm 1's space cannot be exhausted in 50 configurations")
	}
	if res.Visited == 0 || res.Visited > 50 {
		t.Fatalf("Visited = %d, want within (0, 50]", res.Visited)
	}
}

func TestExploreDepthLimit(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{0, 1})
	res := check.Explore(p, c, []int{0, 1}, 1, check.ExploreLimits{MaxDepth: 1})
	if res.Complete {
		t.Fatal("depth 1 cannot exhaust a 2-step protocol")
	}
}

// --- Valency classification ---

// TestValencyInitialSplitIsBivalent is Observation 12 in executable form:
// with q0 input 0 and q1 input 1, the pair {q0, q1} is bivalent initially.
func TestValencyInitialSplitIsBivalent(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{0, 1})
	res := check.ValencyFromResult(check.Explore(p, c, []int{0, 1}, 0, check.ExploreLimits{}))
	if res.Class != check.Bivalent {
		t.Fatalf("initial split configuration is %v, want bivalent", res.Class)
	}
}

// TestValencyAfterFirstSwapIsUnivalent: once p0 swaps its input into the
// object, only p0's input can ever be decided — the configuration is
// univalent.
func TestValencyAfterFirstSwapIsUnivalent(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{0, 1})
	if _, err := model.Apply(p, c, 0); err != nil {
		t.Fatal(err)
	}
	res := check.ValencyFromResult(check.Explore(p, c, []int{0, 1}, 0, check.ExploreLimits{}))
	if res.Class != check.Univalent {
		t.Fatalf("after p0's swap: %v, want univalent", res.Class)
	}
	if len(res.Values) != 1 || res.Values[0] != 0 {
		t.Fatalf("Values = %v, want [0]", res.Values)
	}
}

func TestValencyUnanimousInputsUnivalent(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{1, 1})
	res := check.ValencyFromResult(check.Explore(p, c, []int{0, 1}, 0, check.ExploreLimits{}))
	if res.Class != check.Univalent {
		t.Fatalf("unanimous inputs: %v, want univalent (validity forces 1)", res.Class)
	}
}

// neverDecide is a protocol that loops on a register forever; used to
// exercise the Undecidable classification.
type neverDecide struct{}

type ndState struct{}

func (ndState) Key() string { return "nd" }

func (neverDecide) Name() string      { return "never-decide" }
func (neverDecide) NumProcesses() int { return 1 }
func (neverDecide) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{{Type: model.RegisterType{Domain: 2}, Init: model.Int(0)}}
}
func (neverDecide) Init(pid, input int) model.State { return ndState{} }
func (neverDecide) Poised(pid int, st model.State) (model.Op, bool) {
	return model.Op{Kind: model.OpWrite, Arg: model.Int(1)}, true
}
func (neverDecide) Observe(pid int, st model.State, resp model.Value) model.State { return st }
func (neverDecide) Decision(st model.State) (int, bool)                           { return 0, false }

func TestValencyUndecidable(t *testing.T) {
	p := neverDecide{}
	c := model.MustNewConfig(p, []int{0})
	res := check.ValencyFromResult(check.Explore(p, c, []int{0}, 0, check.ExploreLimits{}))
	if res.Class != check.Undecidable {
		t.Fatalf("never-deciding protocol: %v, want undecidable", res.Class)
	}
}

func TestValencyUnknownOnBudget(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	c := model.MustNewConfig(a1, []int{0, 0, 0, 0})
	// Unanimous inputs: only 0 is decidable, but the space is too large
	// to exhaust with a 20-config budget, so the classifier must answer
	// Unknown rather than claim univalence.
	res := check.ValencyFromResult(check.Explore(a1, c, []int{0, 1, 2, 3}, 0, check.ExploreLimits{MaxConfigs: 20}))
	if res.Class != check.Unknown {
		t.Fatalf("tiny budget: %v, want unknown", res.Class)
	}
}

func TestValencyStrings(t *testing.T) {
	for v, want := range map[check.Valency]string{
		check.Bivalent:    "bivalent",
		check.Univalent:   "univalent",
		check.Undecidable: "undecidable",
		check.Unknown:     "unknown",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

// --- Obstruction-freedom verification ---

// TestObstructionFreeAlgorithm1 verifies Lemma 8's definition directly on
// a BFS prefix of Algorithm 1's configuration space: every process
// solo-terminates within 8(n-k) steps from every explored configuration.
func TestObstructionFreeAlgorithm1(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	bound := a1.Params().SoloStepBound()
	rep, err := check.CheckObstructionFree(a1, []int{0, 1, 1},
		check.ExploreLimits{MaxConfigs: 3000, MaxDepth: 12}, bound)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Configurations == 0 || rep.SoloRuns == 0 {
		t.Fatalf("nothing verified: %+v", rep)
	}
	if rep.MaxSoloSteps > bound {
		t.Fatalf("max solo steps %d exceeds Lemma 8 bound %d", rep.MaxSoloSteps, bound)
	}
	t.Logf("verified %d configurations, %d solo runs, max %d/%d steps, complete=%t",
		rep.Configurations, rep.SoloRuns, rep.MaxSoloSteps, bound, rep.Complete)
}

// TestObstructionFreePairConsensusComplete: the 2-process pair consensus
// has a finite space; verification is complete.
func TestObstructionFreePairConsensusComplete(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	rep, err := check.CheckObstructionFree(p, []int{0, 1}, check.ExploreLimits{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Fatal("finite space should be exhausted")
	}
	if rep.MaxSoloSteps > 2 {
		t.Fatalf("pair consensus solo run took %d steps, want <= 2", rep.MaxSoloSteps)
	}
}

// TestObstructionFreeDetectsNonTerminatingSolo: the never-deciding stub
// must be rejected.
func TestObstructionFreeDetectsNonTerminatingSolo(t *testing.T) {
	if _, err := check.CheckObstructionFree(neverDecide{}, []int{0}, check.ExploreLimits{MaxConfigs: 10}, 16); err == nil {
		t.Fatal("never-deciding protocol must fail the obstruction-freedom check")
	}
}

func TestObstructionFreeRejectsBadBound(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	if _, err := check.CheckObstructionFree(p, []int{0, 1}, check.ExploreLimits{}, 0); err == nil {
		t.Fatal("zero solo bound must be rejected")
	}
}

// TestObstructionFreeRejectsCheckpoint: a snapshot does not keep the
// violation an obstruction check found, so a second run resumed from the
// first one's directory would report none. Checkpointing is rejected,
// on the first run as on any later one.
func TestObstructionFreeRejectsCheckpoint(t *testing.T) {
	toybit, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := check.ExploreOptions{Engine: check.EngineOptions{Workers: 2, Checkpoint: t.TempDir()}}
	for run := 0; run < 2; run++ {
		if _, err := check.CheckObstructionFreeOpts(toybit, []int{0, 1, 0}, opts, 4); !errors.Is(err, check.ErrIncompatibleModes) {
			t.Errorf("run %d: err = %v, want one wrapping ErrIncompatibleModes", run, err)
		}
	}
}

// TestValencyBivalentAlgorithm1 checks the paper's setting directly: an
// initial configuration of Algorithm 1 (consensus instance) with split
// inputs is bivalent for the full process set.
func TestValencyBivalentAlgorithm1(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	c := model.MustNewConfig(a1, []int{0, 1, 1})
	res := check.ValencyFromResult(check.Explore(a1, c, []int{0, 1, 2}, 0, check.ExploreLimits{MaxConfigs: 50000}))
	if res.Class != check.Bivalent {
		t.Fatalf("split-input Algorithm 1: %v (values %v), want bivalent", res.Class, res.Values)
	}
}
