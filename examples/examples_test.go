// Package examples_test smoke-tests every example program: each must
// build and run to completion with exit status 0 and print its expected
// headline. The examples exercise the real goroutine runtimes (hardware
// atomic exchange, crash faults, leader election), so this doubles as an
// end-to-end check of the runtime layer that the model checker does not
// cover.
package examples_test

import (
	"context"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestExamplesBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples run real goroutine contention; skipped in -short mode")
	}
	examples := []struct {
		name string
		// want is a stable substring of the example's output (outputs
		// contain nondeterministic decision values and leader ids, so the
		// assertions stick to the fixed phrasing).
		want string
	}{
		{"faults", "survivor"},
		{"leader", "elected leader"},
		{"quickstart", "decided:"},
		{"setagree", "workers converged"},
		{"simulation", "simulated decisions"},
	}

	bindir := t.TempDir()
	for _, ex := range examples {
		ex := ex
		t.Run(ex.name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(bindir, ex.name)

			build := exec.Command("go", "build", "-o", bin, "./"+ex.name)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build ./examples/%s: %v\n%s", ex.name, err, out)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin).CombinedOutput()
			if err != nil {
				t.Fatalf("running %s: %v\n%s", ex.name, err, out)
			}
			if !strings.Contains(string(out), ex.want) {
				t.Errorf("%s output missing %q:\n%s", ex.name, ex.want, out)
			}
		})
	}
}
