package lowerbound

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
)

// TestLemma16RunAccumulatesDistinctObjects runs the executable Lemma 16
// induction on a bounded-domain protocol and checks the structural
// invariants: every completed stage accumulates a distinct object,
// X and Y are disjoint, and |S| = |Y| with each coverer poised at its
// object.
func TestLemma16RunAccumulatesDistinctObjects(t *testing.T) {
	tb, err := baseline.NewToyBitRace(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lemma16Run(tb, SearchLimits{MaxConfigs: 100000, MaxDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Size(); got != len(res.Stages) {
		t.Fatalf("|X ∪ Y| = %d but %d stages completed; each stage must add one object", got, len(res.Stages))
	}
	seen := map[int]bool{}
	for _, obj := range append(append([]int{}, res.X...), res.Y...) {
		if seen[obj] {
			t.Fatalf("object B%d in both X and Y (or duplicated)", obj)
		}
		seen[obj] = true
	}
	if len(res.S) != len(res.Y) {
		t.Fatalf("|S| = %d, |Y| = %d; every covered object needs a coverer", len(res.S), len(res.Y))
	}
	if len(res.Stages) == 0 && res.Completed {
		t.Fatal("completed with zero stages on a 4-process protocol")
	}
	t.Logf("lemma 16 on %s: X=%v Y=%v completed=%t stop=%q",
		tb.Name(), res.X, res.Y, res.Completed, res.StopReason)
}

// TestLemma16DetectsBrokenProtocol: on the deliberately broken ToyBitRace
// a process decides while Q is still bivalent, which the machinery
// reports as an agreement violation — on a correct consensus protocol
// agreement forces univalence the moment anyone decides, so this event is
// a refutation. This mirrors the paper's logic in reverse: the Section 5
// induction can only run to completion against a correct algorithm.
func TestLemma16DetectsBrokenProtocol(t *testing.T) {
	tb, err := baseline.NewToyBitRace(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lemma16Run(tb, SearchLimits{MaxConfigs: 100000, MaxDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("expected a decided-while-bivalent violation on ToyBitRace; got stop=%q", res.StopReason)
	}
	if res.Violation.Pid < 2 {
		t.Fatalf("violating pid %d should be in P", res.Violation.Pid)
	}
}

// TestLemma16StagesAreInternallyConsistent checks each stage record.
func TestLemma16StagesAreInternallyConsistent(t *testing.T) {
	tb, err := baseline.NewToyBitRace(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Lemma16Run(tb, SearchLimits{MaxConfigs: 150000, MaxDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Stages {
		if st.Pid < 2 {
			t.Errorf("stage %d: pid %d is in Q, not P", i, st.Pid)
		}
		if st.Object < 0 || st.Object >= 4 {
			t.Errorf("stage %d: object B%d out of range", i, st.Object)
		}
		if st.PrefixLen < 0 || st.GammaLen < 0 {
			t.Errorf("stage %d: negative lengths %+v", i, st)
		}
		if !st.ToX {
			if got, ok := res.S[st.Pid]; !ok || got != st.Object {
				t.Errorf("stage %d: Y-classified but p%d does not cover B%d in S", i, st.Pid, st.Object)
			}
		}
	}
}

// refereeProto is a purpose-built bounded-domain subject for the Lemma 16
// driver's progress path, over two objects:
//
//	B0 — Q's race object (domain 3, initial 2 = "open"): q0 and q1 play
//	     single-swap consensus on it (swap own value; the one who sees 2
//	     decides its own input, the other adopts).
//	B1 — the referee flag (domain 2, initial 0): every p_i swaps 1 into
//	     it forever and never decides; each q reads it before racing and,
//	     if set, decides 0 unconditionally.
//
// Q-only executions never touch B1, so Q is bivalent initially; a single
// p_i step sets the flag and forces Q univalent(0). Stage 1 therefore
// completes with B1 joining Y under p_i's cover.
type refereeProto struct{ n int }

type refereeState struct {
	pid     int
	input   int
	phase   int // 0 = read flag, 1 = race on B0 (q only)
	decided int
}

func (s refereeState) Key() string {
	return fmt.Sprintf("%d/%d/%d/%d", s.pid, s.input, s.phase, s.decided)
}

func (p refereeProto) Name() string      { return fmt.Sprintf("referee(n=%d)", p.n) }
func (p refereeProto) NumProcesses() int { return p.n }
func (p refereeProto) InputDomain() int  { return 2 }
func (p refereeProto) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{
		{Type: model.ReadableSwapType{Domain: 3}, Init: model.Int(2)},
		{Type: model.ReadableSwapType{Domain: 2}, Init: model.Int(0)},
	}
}
func (p refereeProto) Init(pid, input int) model.State {
	return refereeState{pid: pid, input: input, decided: -1}
}
func (p refereeProto) Poised(pid int, st model.State) (model.Op, bool) {
	s := st.(refereeState)
	if s.decided >= 0 {
		return model.Op{}, false
	}
	if pid >= 2 {
		// Referees: set the flag forever, never decide.
		return model.Op{Object: 1, Kind: model.OpSwap, Arg: model.Int(1)}, true
	}
	if s.phase == 0 {
		return model.Op{Object: 1, Kind: model.OpRead}, true
	}
	return model.Op{Object: 0, Kind: model.OpSwap, Arg: model.Int(s.input)}, true
}
func (p refereeProto) Observe(pid int, st model.State, resp model.Value) model.State {
	s := st.(refereeState)
	if pid >= 2 {
		return s
	}
	r, ok := resp.(model.Int)
	if !ok {
		return s
	}
	if s.phase == 0 {
		if int(r) == 1 {
			s.decided = 0 // referee overruled: everyone takes 0
			return s
		}
		s.phase = 1
		return s
	}
	if int(r) == 2 {
		s.decided = s.input // won the open slot
	} else {
		s.decided = int(r) // adopt the winner's value
	}
	return s
}
func (p refereeProto) Decision(st model.State) (int, bool) {
	s := st.(refereeState)
	if s.decided >= 0 {
		return s.decided, true
	}
	return 0, false
}

var (
	_ model.Protocol      = refereeProto{}
	_ model.InputDomainer = refereeProto{}
)

// TestLemma16PositiveStageOnReferee drives the induction's progress path
// and pins its whole result: the first P process's flag swap forces Q
// univalent, so stage 1 completes with the flag object joining Y under
// p2's cover. Stage 2 finds a Lemma 13 γ, and p3's solo run keeps Q
// bivalent at every step, so its prefix outgrows the depth bound.
func TestLemma16PositiveStageOnReferee(t *testing.T) {
	res, err := Lemma16Run(refereeProto{n: 4}, SearchLimits{MaxConfigs: 50000, MaxDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("referee keeps Q sound; no violation expected: %+v", res.Violation)
	}
	wantStages := []Lemma16Stage{{Pid: 2, GammaLen: 0, PrefixLen: 0, Object: 1, ToX: false}}
	if !slices.Equal(res.Stages, wantStages) {
		t.Errorf("stages = %+v, want %+v", res.Stages, wantStages)
	}
	if len(res.X) != 0 || !slices.Equal(res.Y, []int{1}) {
		t.Errorf("X = %v, Y = %v, want [] and [1]", res.X, res.Y)
	}
	if !maps.Equal(res.S, map[int]int{2: 1}) {
		t.Errorf("S = %v, want map[2:1]", res.S)
	}
	if res.Completed || res.StopReason != "stage p3: solo prefix exceeded depth 32" {
		t.Errorf("completed = %t, stop = %q, want false and %q",
			res.Completed, res.StopReason, "stage p3: solo prefix exceeded depth 32")
	}
}

// TestLemma16RejectsUnboundedDomains: valency certification needs a
// finite configuration space.
func TestLemma16RejectsUnboundedDomains(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	if _, err := Lemma16Run(a1, SearchLimits{}); err == nil {
		t.Fatal("unbounded-domain protocol must be rejected")
	}
}

func TestLemma16RejectsTooFewProcesses(t *testing.T) {
	tb, err := baseline.NewToyBitRace(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lemma16Run(tb, SearchLimits{}); err == nil {
		t.Fatal("n=2 leaves no P processes; must be rejected")
	}
}
