package trace_test

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/trace"
)

func TestFigure1RendersCertificate(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	cert, err := lowerbound.ConsensusCertificate(a1, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := trace.Figure1(cert)
	for _, want := range []string{"Lemma 9 construction", "stage", "at least 3 swap objects"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure1 output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got < len(cert.Stages)+2 {
		t.Errorf("Figure1 output has %d lines, want at least one per stage (%d)", got, len(cert.Stages))
	}
}

func TestTheorem10Renders(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 6, K: 2, M: 3})
	cert, err := lowerbound.Theorem10Driver(a1, 2, lowerbound.SearchLimits{MaxConfigs: 40000, MaxDepth: 40}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := trace.Theorem10(cert)
	for _, want := range []string{"Theorem 10 induction", "certified objects"} {
		if !strings.Contains(out, want) {
			t.Errorf("Theorem10 output missing %q:\n%s", want, out)
		}
	}
}

func TestLedgerRenders(t *testing.T) {
	tb, err := baseline.NewToyBitRace(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	run, err := lowerbound.RunLedger(tb, []int{0, 1, 1, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := trace.Ledger(run)
	for _, want := range []string{"Lemma 20 ledger evolution", "final:", "weight"} {
		if !strings.Contains(out, want) {
			t.Errorf("Ledger output missing %q:\n%s", want, out)
		}
	}
}

func TestExecutionListing(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	c := model.MustNewConfig(p, []int{0, 1})
	res, err := check.Run(p, c, &sched.RoundRobin{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := trace.ExecutionListing("pair run", res.Execution)
	if !strings.Contains(out, "pair run (2 steps") {
		t.Errorf("listing missing header: %s", out)
	}
	if !strings.Contains(out, "Swap") {
		t.Errorf("listing missing step operations: %s", out)
	}
}

func TestWitnessRendering(t *testing.T) {
	if out := trace.Witness("violation", nil); !strings.Contains(out, "no witness") {
		t.Errorf("nil witness: %s", out)
	}
	w := &lowerbound.Witness{Schedule: []int{0, 1, 2}, Decided: []int{0, 1}, Visited: 42}
	out := trace.Witness("violation", w)
	for _, want := range []string{"violation", "[0 1 2]", "42", "[0 1]"} {
		if !strings.Contains(out, want) {
			t.Errorf("witness output missing %q: %s", want, out)
		}
	}
}

func TestLemma16Rendering(t *testing.T) {
	tb, err := baseline.NewToyBitRace(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lowerbound.Lemma16Run(tb, lowerbound.SearchLimits{MaxConfigs: 100000, MaxDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	out := trace.Lemma16(res)
	for _, want := range []string{"Lemma 16 covering induction", "X ∪ Y"} {
		if !strings.Contains(out, want) {
			t.Errorf("Lemma16 output missing %q:\n%s", want, out)
		}
	}
	if res.Violation != nil && !strings.Contains(out, "AGREEMENT VIOLATION") {
		t.Errorf("violation not rendered:\n%s", out)
	}
}

func TestCoveringRendering(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	res, err := lowerbound.CoveringScan(a1, []int{0, 1, 1}, lowerbound.SearchLimits{MaxConfigs: 5000, MaxDepth: 12})
	if err != nil {
		t.Fatal(err)
	}
	out := trace.Covering(res)
	if !strings.Contains(out, "covering scan") {
		t.Errorf("covering output missing header: %s", out)
	}
	if res.MaxCovered > 0 && !strings.Contains(out, "witness schedule") {
		t.Errorf("covering output missing witness: %s", out)
	}
}

// TestCoveringRenderingDeterministic: a cover map of several objects
// renders in ascending object order, the same way every time (it was read
// in Go's map order once).
func TestCoveringRenderingDeterministic(t *testing.T) {
	res := &lowerbound.CoveringScanResult{MaxCovered: 6, Visited: 1, Schedule: []int{0},
		CoverMap: map[int]int{5: 0, 3: 1, 0: 2, 4: 3, 1: 4, 2: 5}}
	first := trace.Covering(res)
	if want := "cover: B0←p2 B1←p4 B2←p5 B3←p1 B4←p3 B5←p0\n"; !strings.HasSuffix(first, want) {
		t.Errorf("cover line not in object order:\n%s", first)
	}
	for i := 0; i < 20; i++ {
		if again := trace.Covering(res); again != first {
			t.Fatalf("rendering %d differs:\n%s\n--- first ---\n%s", i+1, again, first)
		}
	}
}
