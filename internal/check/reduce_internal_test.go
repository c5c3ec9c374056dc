package check

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
)

// TestSymWorkerMatchesReference: the incremental canonical fingerprint
// (slot-hash surgery + orbit memo) must equal the from-scratch reference
// model.Config.CanonicalSlotFingerprint on every configuration of a
// random walk — including repeated orbits, so the memo path is hit and
// verified too.
func TestSymWorkerMatchesReference(t *testing.T) {
	p, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := model.MustNewConfig(p, []int{0, 1, 0, 1})
	st := model.NewStepper(p)
	slots := st.Slots()
	nObj := len(p.Objects())

	slotH := make([]uint64, slots)
	fp := st.InitSlots(c, slotH)

	allowed := []bool{true, true, true, true}
	plan := planReduction(p, allowed, nObj, slotH)
	if !plan.active() {
		t.Fatal("no active symmetry classes on toybit")
	}
	// Mixed inputs refine the full class into {0,2} and {1,3}.
	if len(plan.classes) != 2 {
		t.Fatalf("classes = %v, want two refined two-process classes", plan.classes)
	}
	sw := newSymWorker(plan, nObj)

	check := func(cfg *model.Config, slotFP uint64, h []uint64) {
		t.Helper()
		got := sw.canonFP(slotFP, h)
		if want := cfg.CanonicalSlotFingerprint(plan.classes); got != want {
			t.Fatalf("incremental canonical %#x != reference %#x for %s", got, want, cfg.Key())
		}
	}
	check(c, fp, slotH)

	dst := &model.Config{Objects: make([]model.Value, nObj), States: make([]model.State, 4)}
	dstH := make([]uint64, slots)
	// A pseudo-random but fixed schedule; revisited orbits exercise the
	// memo-hit path against the reference.
	schedule := []int{0, 1, 2, 3, 2, 0, 1, 3, 3, 2, 1, 0, 0, 2, 1, 3, 1, 1, 2, 2, 0, 3, 3, 0}
	for _, pid := range schedule {
		nfp, ok, err := st.ApplyCOW(c, fp, slotH, pid, dst, dstH)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		c.CopyFrom(dst)
		copy(slotH, dstH)
		fp = nfp
		check(c, fp, slotH)
	}
	if sw.orbitHits == 0 && sw.statesPruned > 0 {
		t.Log("no orbit-memo hits on this schedule (all canonicalizations were sorts); lengthen the schedule if this persists")
	}
}

// TestPlanReductionRefinement: the plan drops unexplored and
// odd-initial-state processes and dissolves singleton classes.
func TestPlanReductionRefinement(t *testing.T) {
	p, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := model.NewStepper(p)
	slotH := make([]uint64, st.Slots())
	nObj := len(p.Objects())

	// Equal inputs: one class of all four.
	c := model.MustNewConfig(p, []int{1, 1, 1, 1})
	st.InitSlots(c, slotH)
	plan := planReduction(p, []bool{true, true, true, true}, nObj, slotH)
	if len(plan.classes) != 1 || len(plan.classes[0]) != 4 {
		t.Errorf("equal inputs: classes = %v, want one class of 4", plan.classes)
	}

	// Restricting the explored pids must split the class: permuting an
	// explored process with a quiesced one is not an automorphism of the
	// restricted schedule space.
	plan = planReduction(p, []bool{true, true, true, false}, nObj, slotH)
	if len(plan.classes) != 1 || len(plan.classes[0]) != 3 {
		t.Errorf("restricted pids: classes = %v, want one class of 3", plan.classes)
	}

	// Distinct inputs everywhere: nothing left to permute.
	st2 := model.NewStepper(p)
	c = model.MustNewConfig(p, []int{0, 1, 1, 1})
	st2.InitSlots(c, slotH)
	plan = planReduction(p, []bool{true, false, false, true}, nObj, slotH)
	if plan.active() {
		t.Errorf("no two explored processes share an initial state, yet classes = %v", plan.classes)
	}
}
