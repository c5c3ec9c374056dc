package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")

// TestGolden pins the regenerated Table 1 whole: every row's paper bound,
// measured object count, certificate and validation status, at the
// default n=8 k=2 and at n=4 k=2.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"n4-k2-schedules2", []string{"-n", "4", "-k", "2", "-schedules", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "golden", tc.name+".out")
			if err := harness.Golden(golden, out.String(), *update); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestRunSoloCensus(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "4", "-k", "2", "-schedules", "1", "-solo"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Lemma 8 solo step census") {
		t.Error("missing solo census section")
	}
}

func TestRunSweep(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "4", "-k", "2", "-schedules", "1", "-sweep"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Theorem 10 certificates") {
		t.Error("missing sweep section")
	}
	if strings.Contains(got, "SHORT") || strings.Contains(got, "FAILED") {
		t.Errorf("sweep fell short of the bound:\n%s", got)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "2", "-k", "2"}, &out); err == nil {
		t.Error("n == k must be rejected")
	}
	if err := run([]string{"-bogusflag"}, &out); err == nil {
		t.Error("unknown flag must be rejected")
	}
}
