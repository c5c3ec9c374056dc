package check

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
)

// TestSymWorkerMatchesReference: the incremental canonical fingerprint
// (load once per node, successor per step) must equal the from-scratch
// reference model.Config.CanonicalSlotFingerprint on every successor of
// every node of an exhaustive toy-bit n=5 quotient run, and the pruning it
// counts must be what load counts from scratch on each successor: the
// number of classes whose hashes are not ascending. The cases cover two
// classes, a pid left out of the explored set (outside every class and
// never stepping), and an explored pid outside every class (a positional
// actor).
func TestSymWorkerMatchesReference(t *testing.T) {
	p, err := baseline.NewToyBitRace(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		inputs  []int
		allowed []bool
		classes [][]int
	}{
		{"two classes", []int{0, 1, 0, 1, 0}, []bool{true, true, true, true, true}, [][]int{{0, 2, 4}, {1, 3}}},
		{"pid 4 unexplored", []int{0, 1, 0, 1, 0}, []bool{true, true, true, true, false}, [][]int{{0, 2}, {1, 3}}},
		{"pid 4 positional", []int{0, 0, 0, 0, 1}, []bool{true, true, true, true, true}, [][]int{{0, 1, 2, 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := model.NewDict(p)
			st := model.NewStepperOn(p, d)
			nObj, nProc := len(p.Objects()), p.NumProcesses()
			rootRefs := make([]uint32, st.Slots())
			slotFP := d.Intern(model.MustNewConfig(p, tc.inputs), rootRefs)
			slotH := make([]uint64, len(rootRefs))
			for i, ref := range rootRefs {
				slotH[i] = d.SlotHash(i, ref)
			}
			classes := planReduction(p, tc.allowed, nObj, slotH)
			if !reflect.DeepEqual(classes, tc.classes) {
				t.Fatalf("classes = %v, want %v", classes, tc.classes)
			}
			sw, ref := newSymWorker(d, classes, nObj, nProc), newSymWorker(d, classes, nObj, nProc)
			config := func(refs []uint32) *model.Config {
				c := &model.Config{Objects: make([]model.Value, nObj), States: make([]model.State, nProc)}
				d.Materialise(refs, c)
				return c
			}

			type node struct {
				refs   []uint32
				slotFP uint64
			}
			ref.load(slotFP, rootRefs)
			seen := map[uint64]bool{ref.fp: true}
			level := []node{{rootRefs, slotFP}}
			successors := 0
			for len(level) > 0 {
				var next []node
				for _, n := range level {
					sw.load(n.slotFP, n.refs)
					for pid := 0; pid < nProc; pid++ {
						if !tc.allowed[pid] {
							continue
						}
						var s model.Step
						ok, err := st.Plan(n.refs, pid, &s)
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							continue
						}
						pruned := sw.statesPruned
						got := sw.successor(pid, &s)
						pruned = sw.statesPruned - pruned
						succ := make([]uint32, len(n.refs))
						st.Install(n.refs, pid, &s, succ)
						succFP := s.Fingerprint(n.slotFP)
						if want := config(succ).CanonicalSlotFingerprint(classes); got != want {
							t.Fatalf("pid %d from %s: incremental canonical %#x != reference %#x", pid, config(n.refs).Key(), got, want)
						}
						if ref.load(succFP, succ); ref.fp != got || ref.unsorted != pruned {
							t.Fatalf("pid %d from %s: from scratch %#x with %d unsorted classes, incrementally %#x with %d",
								pid, config(n.refs).Key(), ref.fp, ref.unsorted, got, pruned)
						}
						successors++
						if !seen[got] {
							seen[got] = true
							next = append(next, node{succ, succFP})
						}
					}
				}
				level = next
			}
			if len(seen) < 1000 || sw.statesPruned == 0 {
				t.Fatalf("%d orbits over %d successors, %d pruned: too small a run to show anything", len(seen), successors, sw.statesPruned)
			}
			t.Logf("%d orbits, %d successors checked, %d pruned", len(seen), successors, sw.statesPruned)
		})
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
	classes := planReduction(p, []bool{true, true, true, true}, nObj, slotH)
	if len(classes) != 1 || len(classes[0]) != 4 {
		t.Errorf("equal inputs: classes = %v, want one class of 4", classes)
	}

	// Restricting the explored pids must split the class: permuting an
	// explored process with a quiesced one is not an automorphism of the
	// restricted schedule space.
	classes = planReduction(p, []bool{true, true, true, false}, nObj, slotH)
	if len(classes) != 1 || len(classes[0]) != 3 {
		t.Errorf("restricted pids: classes = %v, want one class of 3", classes)
	}

	// Distinct inputs everywhere: nothing left to permute.
	st2 := model.NewStepper(p)
	c = model.MustNewConfig(p, []int{0, 1, 1, 1})
	st2.InitSlots(c, slotH)
	classes = planReduction(p, []bool{true, false, false, true}, nObj, slotH)
	if len(classes) > 0 {
		t.Errorf("no two explored processes share an initial state, yet classes = %v", classes)
	}
}
