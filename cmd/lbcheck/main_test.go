package main

import (
	"errors"
	"strings"
	"testing"
)

func TestRunFigure1(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-figure1", "-n", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Lemma 9 construction (Figure 1)", "at least 3 swap objects"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q:\n%s", want, got)
		}
	}
}

func TestRunTheorem10(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-theorem10", "-n", "4", "-k", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "certified objects: 1 (bound ⌈n/k⌉−1 = 1)") {
		t.Errorf("certificate missing:\n%s", out.String())
	}
}

func TestRunCounterexample(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-counterexample"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "agreement violation with 3 processes") {
		t.Errorf("witness missing:\n%s", out.String())
	}
}

func TestRunCovering(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-covering", "-n", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "covering scan") {
		t.Errorf("scan missing:\n%s", out.String())
	}
}

// TestRunCoveringDeterministic: -covering prints the same bytes on every
// run. The cover map is a Go map; both its rendering and the process set
// S that Lemma 13's search is given were once read off it in map order,
// so the cover line and the γ found changed from run to run.
func TestRunCoveringDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 5; i++ {
		var out strings.Builder
		if err := run([]string{"-covering", "-n", "4"}, &out); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = out.String()
			if !strings.Contains(first, "cover:") {
				t.Fatalf("no cover line to compare:\n%s", first)
			}
		} else if out.String() != first {
			t.Fatalf("run %d differs from run 0:\n%s\n--- run 0 ---\n%s", i, out.String(), first)
		}
	}
}

func TestRunForbidden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-forbidden", "-n", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Lemma 20 ledger evolution") {
		t.Errorf("ledger missing:\n%s", out.String())
	}
}

func TestRunLemma16(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-lemma16", "-n", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Lemma 16 covering induction") {
		t.Errorf("induction missing:\n%s", out.String())
	}
}

func TestRunNoModeIsUsageError(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want errUsage", err)
	}
}
