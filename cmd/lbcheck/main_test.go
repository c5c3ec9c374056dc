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

// TestRunCovering pins -covering -n 3 literally. Every search keeps the
// smallest node of a class by (depth, fingerprint, key), so the witness
// is the depth-1 [2], which leaves S = {2} for Lemma 13.
func TestRunCovering(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-covering", "-n", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	const want = `protocol: toy-bit-race(n=3,L=2)
covering scan: max 2 objects simultaneously covered (3841 configurations visited)
  witness schedule: [2]
  cover: B0←p0 B1←p2
Lemma 13: γ = [] (tried 1 prefixes); Q bivalent after block swap, witnesses decide [0 1]
`
	if out.String() != want {
		t.Errorf("-covering -n 3 printed\n%s\nwant\n%s", out.String(), want)
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

// TestRunEngineFlagWithoutEngineIsUsageError: -figure1 and -forbidden run
// no frontier engine, so an engine flag given to them alone is a usage
// error that names it instead of a flag silently ignored; -max and -depth
// stay honoured, and a search mode alongside — -covering included — takes
// the engine flags.
func TestRunEngineFlagWithoutEngineIsUsageError(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		named []string
	}{
		{[]string{"-figure1", "-n", "4", "-workers", "2"}, []string{"-workers"}},
		{[]string{"-figure1", "-n", "4", "-fingerprints"}, []string{"-fingerprints"}},
		{[]string{"-forbidden", "-store", "spill", "-membudget", "1MB"}, []string{"-store", "-membudget"}},
		{[]string{"-figure1", "-forbidden", "-progress"}, []string{"-progress"}},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		if !errors.Is(err, errEngineFlag) {
			t.Errorf("%v: err = %v, want errEngineFlag", tc.args, err)
			continue
		}
		for _, name := range tc.named {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%v: error %q does not name %s", tc.args, err, name)
			}
		}
	}
	var out strings.Builder
	if err := run([]string{"-figure1", "-n", "4", "-max", "5000", "-depth", "12"}, &out); err != nil {
		t.Errorf("-figure1 with -max/-depth: %v", err)
	}
	if err := run([]string{"-covering", "-n", "3", "-workers", "2", "-fingerprints"}, &out); err != nil {
		t.Errorf("-covering with -workers and -fingerprints: %v", err)
	}
	if err := run([]string{"-figure1", "-theorem10", "-n", "4", "-k", "2", "-workers", "2"}, &out); err != nil {
		t.Errorf("-figure1 with a search mode and -workers: %v", err)
	}
}
