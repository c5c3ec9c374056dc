package main

import (
	"errors"
	"flag"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")

type cell struct {
	name string
	args []string
}

// engineCells are the engine settings every search case runs under: one
// worker; four over the spill store, whose 16KB budget spools every
// frontier to disk, provenance paths included; and fingerprint keys, in
// RAM and spilled. Each prints the case's one golden file, because every
// class search picks its witness by one order. The first cell writes the
// file under -update.
var engineCells = []cell{
	{"w1", []string{"-workers", "1"}},
	{"w4-spill16k", []string{"-workers", "4", "-store", "spill", "-membudget", "16KB"}},
	{"w4-fingerprints", []string{"-workers", "4", "-fingerprints"}},
	{"w2-fingerprints-spill16k", []string{"-workers", "2", "-fingerprints", "-store", "spill", "-membudget", "16KB"}},
}

// TestGolden pins each mode's whole output: Theorem 10's certificates,
// the counterexample's schedule, the covering scan with its cover map and
// Lemma 13 γ, the Lemma 16 induction, Figure 1 and the Lemma 20 ledger.
// A case with engine set runs a search, so under every engine cell.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		engine bool
	}{
		{"counterexample", []string{"-counterexample"}, true},
		{"theorem10-n4-k2", []string{"-theorem10", "-n", "4", "-k", "2"}, true},
		{"theorem10-n6-k2", []string{"-theorem10", "-n", "6", "-k", "2"}, true},
		{"theorem10-n12-k3", []string{"-theorem10", "-n", "12", "-k", "3"}, true},
		{"covering-n3", []string{"-covering", "-n", "3"}, true},
		{"covering-n4", []string{"-covering", "-n", "4"}, true},
		{"lemma16-n4", []string{"-lemma16", "-n", "4"}, true},
		{"figure1-n4", []string{"-figure1", "-n", "4"}, false},
		{"forbidden-n4", []string{"-forbidden", "-n", "4"}, false},
	} {
		cells := engineCells
		if !tc.engine {
			cells = []cell{{name: "no-engine"}}
		}
		for i, c := range cells {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				var out strings.Builder
				if err := run(append(slices.Clone(tc.args), c.args...), &out); err != nil {
					t.Fatal(err)
				}
				golden := filepath.Join("testdata", "golden", tc.name+".out")
				if err := harness.Golden(golden, out.String(), *update && i == 0); err != nil {
					t.Error(err)
				}
			})
		}
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

// TestExitCodes: every usage error exits 2 — no mode, a flag that does not
// parse, an engine flag for a mode without an engine, and an engine flag
// block that does not validate (a negative -workers or -checkpointevery,
// -checkpointevery without -checkpoint, a mode the searches reject) — as
// mcheck's do; a run exits 0.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-figure1", "-n", "4", "-workers", "2"}, 2},
		{[]string{"-counterexample", "-workers", "-2"}, 2},
		{[]string{"-counterexample", "-checkpointevery", "-3"}, 2},
		{[]string{"-counterexample", "-checkpointevery", "3"}, 2},
		{[]string{"-counterexample", "-order", "async"}, 2},
		{[]string{"-counterexample", "-workers", "2"}, 0},
	} {
		var out strings.Builder
		got := 0
		if err := run(tc.args, &out); err != nil {
			got = exitCode(err)
		}
		if got != tc.want {
			t.Errorf("%v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}
