package harness_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestScrubRemovesOnlyTiming: each timing form becomes "_"; every other
// byte, numbers beside "ms" or "s" in non-timing text included, stays.
func TestScrubRemovesOnlyTiming(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"mcheck prose",
			"explored 200000 configurations in 126ms (1583937 configs/s, complete: false)\n",
			"explored 200000 configurations in _ (_ configs/s, complete: false)\n"},
		{"mcheck prose, seconds and zero",
			"explored 5 configurations in 1.204s (4 configs/s, complete: true)\nexplored 5 configurations in 0s (+Inf configs/s, complete: true)\n",
			"explored 5 configurations in _ (_ configs/s, complete: true)\nexplored 5 configurations in _ (_ configs/s, complete: true)\n"},
		{"mcheck -json elapsed_ms",
			`{"visited":200000,"elapsed_ms":139,"store":{"kind":"mem"}}`,
			`{"visited":200000,"elapsed_ms":_,"store":{"kind":"mem"}}`},
		{"sweep record",
			`{"states":17263,"wall_ms":12.345,"configs_per_sec":1.2345e+06,"allocs_per_state":3.5}`,
			`{"states":17263,"wall_ms":_,"configs_per_sec":_,"allocs_per_state":_}`},
		{"sweep record, timing last",
			`{"measured":-1,"wall_ms":0.004}`,
			`{"measured":-1,"wall_ms":_}`},
	} {
		if got := harness.Scrub(tc.in); got != tc.want {
			t.Errorf("%s: Scrub(%q) = %q, want %q", tc.name, tc.in, got, tc.want)
		}
	}
	for _, keep := range []string{
		"protocol: toy-bit-race(n=3,L=2)\n",
		"variant: ablation(n=3,k=1,m=2,margin=1,objs=2,conflict=true,tie=lowest)\n",
		"agreement violation: schedule [1 1 1 1 0] (14 steps, 4611 configurations explored) decides [0 1]\n",
		"no violation within 50000 configurations; validating under adversarial schedules...\n",
		"store: spill — 604.1KiB spilled (5 runs written, 0 merged), peak resident 36.0KiB, 2976 prefilter hits\n",
		"lbcheck -max 200000s -depth 12ms: in 3 steps (2 configs)\n",
		`{"cell":"explore/n=4/k=2/w0-s0-default","max_configs":200000,"elapsed":5,"wall":"12ms","states":9}`,
	} {
		if got := harness.Scrub(keep); got != keep {
			t.Errorf("Scrub(%q) = %q, want it unchanged", keep, got)
		}
	}
}

// TestGoldenComparesOrRewrites: with update the scrubbed output is
// written; without it a match passes and a mismatch names the line.
func TestGoldenComparesOrRewrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden", "case.out")
	out := "explored 5 configurations in 3ms (1666 configs/s, complete: true)\nok\n"
	if err := harness.Golden(path, out, false); err == nil {
		t.Fatal("a missing golden file must fail")
	}
	if err := harness.Golden(path, out, true); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != harness.Scrub(out) {
		t.Fatalf("golden file holds %q, want the scrubbed output", b)
	}
	if err := harness.Golden(path, strings.Replace(out, "3ms (1666", "9ms (555", 1), false); err != nil {
		t.Errorf("a run differing only in timing: %v", err)
	}
	err := harness.Golden(path, strings.Replace(out, "ok", "FAILED", 1), false)
	if err == nil || !strings.Contains(err.Error(), "case.out:2:") {
		t.Errorf("mismatch on line 2: err = %v", err)
	}
}
