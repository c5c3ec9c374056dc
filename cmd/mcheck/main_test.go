package main

import (
	"encoding/json"
	"errors"
	"flag"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/check"
	"repro/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")

type cell struct {
	name string
	args []string
	// merges says the cell's budget is small enough that its store must
	// compact sorted runs.
	merges bool
}

// engineCells are the engine settings every case runs under, as lbcheck's
// are, with -stringkeys for the other keying; compactingCells add the
// spill store at a budget small enough to compact its sorted runs under
// either keying: 512B under fingerprints, what an empty 64-slot delta
// table is charged, since the n=4 k=2 instance has eleven levels and its
// delta must flush at nearly every barrier for the eight runs a compaction
// needs (at 1KB it writes seven); 4KB under exact keys, where an entry is
// charged its ref tuple and table slot. A case prints one golden file
// under all of its cells; the first writes it under -update.
var (
	engineCells = []cell{
		{"w1", []string{"-workers", "1"}, false},
		{"w4-spill16k", []string{"-workers", "4", "-store", "spill", "-membudget", "16KB"}, false},
		{"w4-stringkeys", []string{"-workers", "4", "-stringkeys"}, false},
		{"w2-stringkeys-spill16k", []string{"-workers", "2", "-stringkeys", "-store", "spill", "-membudget", "16KB"}, false},
	}
	compactingCells = []cell{
		{"w2-spill512b", []string{"-workers", "2", "-store", "spill", "-membudget", "512B"}, true},
		{"w2-stringkeys-spill4k", []string{"-workers", "2", "-stringkeys", "-store", "spill", "-membudget", "4KB"}, true},
	}
)

// storeReport matches mcheck's store report: the prose line, printed for
// a spill store only, or the -json object.
var storeReport = regexp.MustCompile(`(?m)^store: spill — (\S+) spilled \(\d+ runs written, (\d+) merged\).*\n|"store":(\{[^}]*\}),`)

// cutStore removes the store report from out, since it describes the
// cell rather than the verdict, and returns whether the store spilled
// any bytes and how many sorted runs it merged.
func cutStore(t *testing.T, out string) (rest string, spilled bool, merged int) {
	t.Helper()
	m := storeReport.FindStringSubmatch(out)
	switch {
	case m == nil:
	case m[3] != "":
		var st check.StoreStats
		if err := json.Unmarshal([]byte(m[3]), &st); err != nil {
			t.Fatal(err)
		}
		spilled, merged = st.BytesSpilled > 0, st.RunsMerged
	default:
		spilled = m[1] != "0B"
		merged, _ = strconv.Atoi(m[2])
	}
	return storeReport.ReplaceAllString(out, ""), spilled, merged
}

// TestGolden pins each case's whole report — visited count, decided
// values, verdict, valency — and its error: a violation is errViolation
// (exit 1). Every spill cell must really spill, and every compacting cell
// must merge runs. Row 3 at 200k is budget-bound; the n=4 k=2 instance at
// 40,001 states closes on a level about three times what its cut keeps.
func TestGolden(t *testing.T) {
	row3 := []string{"-json", "-proto", "algorithm1", "-n", "4", "-k", "1", "-m", "3", "-max", "200000"}
	cut := []string{"-json", "-proto", "algorithm1", "-n", "4", "-k", "2", "-m", "3", "-max", "40001"}
	for _, tc := range []struct {
		name  string
		args  []string
		err   error
		cells []cell
	}{
		{"pair-n2", []string{"-proto", "pair", "-n", "2"}, nil, engineCells},
		{"pair-n2-inputs-1-1", []string{"-proto", "pair", "-n", "2", "-inputs", "1,1"}, nil, engineCells},
		{"pair-n3", []string{"-proto", "pair", "-n", "3"}, errViolation, engineCells},
		{"ablation-margin1", []string{"-proto", "ablation-margin1", "-n", "3", "-k", "1", "-m", "2", "-max", "20000"}, errViolation, engineCells},
		{"row3-200k", row3, nil, append(slices.Clone(engineCells), compactingCells...)},
		{"cut-n4-k2-40001", cut, nil, append(slices.Clone(engineCells), compactingCells...)},
	} {
		for i, c := range tc.cells {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				var out strings.Builder
				if err := run(append(slices.Clone(tc.args), c.args...), &out); !errors.Is(err, tc.err) {
					t.Fatalf("err = %v, want %v", err, tc.err)
				}
				rest, spilled, merged := cutStore(t, out.String())
				if slices.Contains(c.args, "spill") && !spilled {
					t.Errorf("spill cell spilled no bytes:\n%s", out.String())
				}
				if c.merges && merged == 0 {
					t.Errorf("compacting cell merged no runs:\n%s", out.String())
				}
				golden := filepath.Join("testdata", "golden", tc.name+".out")
				if err := harness.Golden(golden, rest, *update && i == 0); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestRunReduceFlag: a quotiented model check reports its reduction
// line and the same decided values as the unreduced run; bad
// combinations fail as usage errors.
func TestRunReduceFlag(t *testing.T) {
	var out strings.Builder
	// The anonymous pairing protocol is correct (no violation) and
	// symmetric, so the quotient has something to fold. It is asked for by
	// its deprecated synonym, which must run, and report, as sym.
	if err := run([]string{"-proto", "pairing", "-n", "4", "-k", "3", "-reduce", "sym+sleep"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "reduction: sym —") {
		t.Errorf("no reduction report in output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "states pruned") {
		t.Errorf("no pruning count in output:\n%s", out.String())
	}
	if err := run([]string{"-proto", "pair", "-n", "2", "-reduce", "warp"}, &out); err == nil {
		t.Error("unknown -reduce mode must fail")
	}
	if err := run([]string{"-proto", "pair", "-n", "2", "-stringkeys", "-reduce", "sym"}, &out); err == nil {
		t.Error("-reduce with -stringkeys must fail")
	}
}

func TestRunBadUsage(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-proto", "nope"}, &out); err == nil {
		t.Error("unknown protocol must fail")
	}
	if err := run([]string{"-proto", "pair", "-n", "2", "-inputs", "1"}, &out); err == nil {
		t.Error("wrong input arity must fail")
	}
	if err := run([]string{"-proto", "pair", "-n", "2", "-inputs", "x,y"}, &out); err == nil {
		t.Error("non-numeric inputs must fail")
	}
}

// TestRunDistributedModeConflicts: -distributed is a mode like the
// others, so the three pairings the mode table forbids it are usage
// errors (exit 2) raised before any peer is dialled — not flags the
// coordinator drops on the way to a clean exit.
func TestRunDistributedModeConflicts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var dialled atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dialled.Add(1)
			conn.Close()
		}
	}()
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	for _, mode := range [][]string{
		{"-order", "async"},
		{"-stringkeys"},
		{"-checkpoint", ckpt},
	} {
		args := append([]string{"-proto", "pair", "-n", "2", "-distributed", "-peers", ln.Addr().String()}, mode...)
		var out strings.Builder
		err := run(args, &out)
		if !errors.Is(err, check.ErrIncompatibleModes) || errors.Is(err, errViolation) {
			t.Errorf("%v: err = %v, want a usage error wrapping ErrIncompatibleModes", mode, err)
		}
		if strings.Contains(out.String(), "explored") {
			t.Errorf("%v: a run was reported:\n%s", mode, out.String())
		}
	}
	ln.Close()
	if n := dialled.Load(); n != 0 {
		t.Errorf("%d peer connections were made before the flags were rejected", n)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint directory: stat err = %v, want it never created", err)
	}
}

// TestRunUnknownStore: a store name the engine does not know is a usage
// error naming it before anything is printed, alone and as a
// distributed coordinator, where it fails before any dial (127.0.0.1:1
// has no peer, so a dial would report a connection error instead).
func TestRunUnknownStore(t *testing.T) {
	for _, extra := range [][]string{nil, {"-distributed", "-peers", "127.0.0.1:1"}} {
		args := append([]string{"-proto", "pair", "-n", "2", "-store", "bogus"}, extra...)
		var out strings.Builder
		err := run(args, &out)
		var nerr *net.OpError
		if err == nil || !strings.Contains(err.Error(), `unknown store "bogus"`) || errors.As(err, &nerr) || errors.Is(err, errViolation) {
			t.Errorf("%v: err = %v, want the unknown-store usage error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote %q before failing", args, out.String())
		}
	}
}

func TestBuildProtocolAllNames(t *testing.T) {
	for _, name := range []string{
		"algorithm1", "algorithm1-readable", "racing", "readable",
		"pair", "pairing", "register-kset", "toybit", "ablation-margin1",
	} {
		n, k := 4, 2
		if name == "pair" {
			n, k = 2, 1
		}
		if _, err := harness.BuildProtocol(name, n, k, k+1); err != nil {
			t.Errorf("BuildProtocol(%q): %v", name, err)
		}
	}
}
