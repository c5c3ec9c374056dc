package main

import (
	"strings"
	"testing"
)

// runOK runs ablate with args and returns its whole output.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// expectOutput compares a run's whole output against the pinned bytes:
// the variant's name, the witness schedule and the configuration count
// are all part of what the ablation experiment reports.
func expectOutput(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunFaithfulIsSafe(t *testing.T) {
	expectOutput(t, runOK(t, "-budget", "50000"),
		`variant: ablation(n=3,k=1,m=2,margin=2,objs=2,conflict=true,tie=lowest)
(no ablation active: this is the paper's Algorithm 1)
no violation within 50000 configurations; validating under adversarial schedules...
validation passed: agreement and validity held on every schedule
`)
}

func TestRunMarginOneBreaks(t *testing.T) {
	expectOutput(t, runOK(t, "-margin", "1"),
		`variant: ablation(n=3,k=1,m=2,margin=1,objs=2,conflict=true,tie=lowest)
agreement violation: schedule [1 1 1 1 0 0 0 0 0 0 0 0 0 0] (14 steps, 4611 configurations explored) decides [0 1]
the ablated ingredient is load-bearing: the variant is NOT a correct algorithm
`)
}

func TestRunObjectAblationBreaks(t *testing.T) {
	expectOutput(t, runOK(t, "-objects", "1", "-n", "3"),
		`variant: ablation(n=3,k=1,m=2,margin=2,objs=1,conflict=true,tie=lowest)
agreement violation: schedule [1 1 1 1 2 0 0 0 0] (9 steps, 1188 configurations explored) decides [0 1]
the ablated ingredient is load-bearing: the variant is NOT a correct algorithm
`)
}

func TestRunNoConflictBreaks(t *testing.T) {
	expectOutput(t, runOK(t, "-noconflict"),
		`variant: ablation(n=3,k=1,m=2,margin=2,objs=2,conflict=false,tie=lowest)
agreement violation: schedule [1 2 1 1 2 1 1 0 2 2 2 2 2 2 1 0] (16 steps, 25517 configurations explored) decides [0 1]
the ablated ingredient is load-bearing: the variant is NOT a correct algorithm
`)
}

func TestRunTieBreakSafe(t *testing.T) {
	expectOutput(t, runOK(t, "-tiebreak", "highest", "-budget", "50000"),
		`variant: ablation(n=3,k=1,m=2,margin=2,objs=2,conflict=true,tie=highest)
no violation within 50000 configurations; validating under adversarial schedules...
validation passed: agreement and validity held on every schedule
`)
}

func TestRunBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-tiebreak", "sideways"},
		{"-n", "1"},
		{"-margin", "-1"},
		{"-margin", "0"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%v must fail", args)
		}
	}
}
