package main

import (
	"flag"
	"strings"
	"testing"
)

// update is accepted so that `go test ./cmd/... -update` runs here too;
// this command has no golden files.
var _ = flag.Bool("update", false, "rewrite testdata/golden (none here)")

func TestRunSmallRace(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "4", "-rounds", "5", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"algorithm 1 runtime: n=4 k=1 m=2 objects=3",
		"5 rounds in",
		"k-agreement and validity held in every round",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunKSet(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "6", "-k", "3", "-m", "4", "-rounds", "3", "-seed", "9"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "objects=3") {
		t.Errorf("n-k objects expected:\n%s", out.String())
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-n", "2", "-k", "2"}, &out); err == nil {
		t.Error("n <= k must be rejected")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("unknown flag must be rejected")
	}
}
