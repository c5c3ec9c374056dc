package core_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/model"
	"repro/internal/sched"
)

// ablated builds an n-process, m-valued k-set agreement instance of
// Algorithm 1 with the given ablation.
func ablated(n, k, m int, abl core.Ablation) *core.Protocol {
	return core.MustNew(core.Params{N: n, K: k, M: m, Ablation: abl})
}

func TestAblationValidation(t *testing.T) {
	for _, tt := range []struct {
		name   string
		params core.Params
	}{
		{"n <= k", core.Params{N: 2, K: 2, M: 2, Ablation: core.Ablation{Margin: 1}}},
		{"m < 2", core.Params{N: 3, K: 1, M: 1, Ablation: core.Ablation{Margin: 1}}},
		{"readable", core.Params{N: 3, K: 1, M: 2, Readable: true, Ablation: core.Ablation{Margin: 1}}},
		{"negative margin", core.Params{N: 3, K: 1, M: 2, Ablation: core.Ablation{Margin: -1}}},
		{"negative object count", core.Params{N: 3, K: 1, M: 2, Ablation: core.Ablation{Objects: -2}}},
		{"unknown tie break", core.Params{N: 3, K: 1, M: 2, Ablation: core.Ablation{TieBreak: core.TieBreak(9)}}},
	} {
		if _, err := core.New(tt.params); err == nil {
			t.Errorf("%s must be rejected", tt.name)
		}
	}
	if _, err := core.NewSetAgreement(core.Params{N: 3, K: 1, M: 2, Ablation: core.Ablation{Margin: 3}}, core.Options{}); err == nil {
		t.Error("the runtime must reject an ablated instance")
	}
}

// TestDefaultsReproduceAlgorithm1: the zero Ablation, and one that spells
// out the paper's choices, both run Algorithm 1; only the second is named
// as an ablation.
func TestDefaultsReproduceAlgorithm1(t *testing.T) {
	plain := ablated(4, 1, 2, core.Ablation{})
	spelled := ablated(4, 1, 2, core.Ablation{Margin: 2, Objects: 3, TieBreak: core.TieBreakLowest})
	for _, p := range []*core.Protocol{plain, spelled} {
		if !p.Faithful() {
			t.Errorf("%s: not faithful", p.Name())
		}
		if len(p.Objects()) != 3 {
			t.Errorf("%s: %d objects, want n-k = 3", p.Name(), len(p.Objects()))
		}
		if !model.SwapOnly(p) {
			t.Errorf("%s: not swap-only", p.Name())
		}
	}
	if got, want := plain.Name(), "algorithm1(n=4,k=1,m=2,swap)"; got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
	if got, want := spelled.Name(), "ablation(n=4,k=1,m=2,margin=2,objs=3,conflict=true,tie=lowest)"; got != want {
		t.Errorf("Name = %q, want %q", got, want)
	}
	if ablated(4, 1, 2, core.Ablation{Margin: 1}).Faithful() {
		t.Error("margin 1 reported faithful")
	}
}

// TestMarginTwoIsSafe: the paper's margin survives the adversarial
// validator (control arm for the margin ablation).
func TestMarginTwoIsSafe(t *testing.T) {
	v := ablated(3, 1, 2, core.Ablation{Margin: 2})
	if err := harness.ValidateProtocol(v, 1, harness.ValidateOptions{Schedules: 20, Seed: 1}); err != nil {
		t.Fatalf("margin 2 should be safe: %v", err)
	}
}

// TestMarginThreeIsSafe: raising the margin only delays decisions; safety
// is unaffected.
func TestMarginThreeIsSafe(t *testing.T) {
	v := ablated(3, 1, 2, core.Ablation{Margin: 3})
	if err := harness.ValidateProtocol(v, 1, harness.ValidateOptions{Schedules: 15, Seed: 2}); err != nil {
		t.Fatalf("margin 3 should be safe: %v", err)
	}
}

// TestMarginOneBreaksAgreement is the central ablation: weakening line
// 16's "2 laps ahead" to "1 lap ahead" admits an agreement violation,
// exhibited as a replayable schedule. This is exactly the slack Lemma 6's
// contradiction chains consume.
func TestMarginOneBreaksAgreement(t *testing.T) {
	v := ablated(3, 1, 2, core.Ablation{Margin: 1})
	w, err := lowerbound.FindAgreementViolation(v, []int{0, 1, 1}, 1,
		lowerbound.SearchLimits{MaxConfigs: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("margin 1 admits no violation within budget — expected Lemma 6's margin to be tight")
	}
	// Replay the witness end to end.
	c := model.MustNewConfig(v, []int{0, 1, 1})
	if _, err := check.Run(v, c, &sched.Replay{Pids: w.Schedule}, len(w.Schedule)+1); err != nil {
		t.Fatal(err)
	}
	if got := c.DecidedValues(v); len(got) < 2 {
		t.Fatalf("replay decided %v, want the violation %v", got, w.Decided)
	}
}

// TestFewerObjectsBreaksAgreement demonstrates Theorem 10 from the
// algorithm side: running the consensus instance with n-2 swap objects
// (one below the paper's n-1) admits an agreement violation.
func TestFewerObjectsBreaksAgreement(t *testing.T) {
	// n=3, k=1: the paper needs 2 objects; give it 1.
	v := ablated(3, 1, 2, core.Ablation{Objects: 1})
	w, err := lowerbound.FindAgreementViolation(v, []int{0, 1, 1}, 1,
		lowerbound.SearchLimits{MaxConfigs: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("1 object for 3-process consensus admits no violation within budget")
	}
}

// TestNoConflictCheckBreaksAgreement ablates lines 4-5: counting every
// pass as a lap regardless of responses destroys the ⟨V,p⟩-totality
// structure (Observation 2) and admits a violation.
func TestNoConflictCheckBreaksAgreement(t *testing.T) {
	v := ablated(3, 1, 2, core.Ablation{DisableConflictReset: true})
	w, err := lowerbound.FindAgreementViolation(v, []int{0, 1, 1}, 1,
		lowerbound.SearchLimits{MaxConfigs: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("conflict-blind variant admits no violation within budget")
	}
}

// TestTieBreakHighestIsSafe: the proof does not depend on which leading
// value line 15 picks; the opposite tie-break still validates.
func TestTieBreakHighestIsSafe(t *testing.T) {
	v := ablated(3, 1, 3, core.Ablation{TieBreak: core.TieBreakHighest})
	if err := harness.ValidateProtocol(v, 1, harness.ValidateOptions{Schedules: 20, Seed: 3}); err != nil {
		t.Fatalf("highest tie-break should be safe: %v", err)
	}
}

// TestTieBreakAffectsOutcomeNotSafety: on a tied counter the two rules
// pick different winners (so the ablation is real), yet both satisfy
// agreement.
func TestTieBreakAffectsOutcomeNotSafety(t *testing.T) {
	low := ablated(2, 1, 2, core.Ablation{TieBreak: core.TieBreakLowest})
	high := ablated(2, 1, 2, core.Ablation{TieBreak: core.TieBreakHighest})
	// A schedule on which the surviving counter is tied: p0 and p1 swap
	// alternately so both merge to [1,1] before any clean lap.
	differs := false
	for seed := int64(0); seed < 40 && !differs; seed++ {
		inputs := []int{0, 1}
		run := func(p model.Protocol) int {
			cfg := model.MustNewConfig(p, inputs)
			_, _ = check.Run(p, cfg, sched.NewRandom(seed), 16)
			for pid := 0; pid < 2; pid++ {
				if _, ok := cfg.Decided(p, pid); !ok {
					if _, err := check.SoloRun(p, cfg, pid, 4096); err != nil {
						t.Fatal(err)
					}
				}
			}
			vals := cfg.DecidedValues(p)
			if len(vals) != 1 {
				t.Fatalf("seed %d: agreement violated: %v", seed, vals)
			}
			return vals[0]
		}
		if run(low) != run(high) {
			differs = true
		}
	}
	if !differs {
		t.Log("tie-break never changed the outcome in 40 seeds (acceptable: ties are schedule-dependent)")
	}
}

// TestMarginOneSoloStillDecides: the margin ablation breaks safety, not
// liveness — solo runs still terminate (faster, in fact).
func TestMarginOneSoloStillDecides(t *testing.T) {
	v := ablated(4, 1, 2, core.Ablation{Margin: 1})
	c := model.MustNewConfig(v, []int{0, 1, 0, 1})
	res, err := check.SoloRun(v, c, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Decisions[0]; got != 0 {
		t.Fatalf("solo decided %d, want 0", got)
	}
}

// TestLemma9CertifiesAblatedObjectCounts: the Lemma 9 adversary certifies
// exactly as many objects as the variant actually has when run below the
// bound — the certificate tracks reality, not the formula.
func TestLemma9CertifiesAblatedObjectCounts(t *testing.T) {
	// 4 processes on 2 objects (paper wants 3). The adversary's
	// construction needs |Q| = 3 distinct objects but only 2 exist, so it
	// must fail — and that failure is precisely an execution witnessing
	// that the protocol cannot be a correct consensus algorithm.
	v := ablated(4, 1, 2, core.Ablation{Objects: 2})
	if _, err := lowerbound.ConsensusCertificate(v, 0); err == nil {
		t.Fatal("Lemma 9 cannot certify 3 objects on a 2-object protocol; expected failure")
	}
}

func TestTieBreakString(t *testing.T) {
	if core.TieBreakLowest.String() != "lowest" || core.TieBreakHighest.String() != "highest" {
		t.Fatal("tie break strings")
	}
}
