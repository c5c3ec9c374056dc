package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")

// TestGolden pins each ablation's whole output: the variant's name, and
// either the witness schedule with its configuration count or the
// validation verdict.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"faithful", []string{"-budget", "50000"}},
		{"margin1", []string{"-margin", "1"}},
		{"objects1-n3", []string{"-objects", "1", "-n", "3"}},
		{"noconflict", []string{"-noconflict"}},
		{"tiebreak-highest", []string{"-tiebreak", "highest", "-budget", "50000"}},
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
