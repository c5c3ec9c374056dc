package main

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/check"
	"repro/internal/harness"
)

func TestRunPairConsensusComplete(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-proto", "pair", "-n", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"pair-consensus", "complete: true",
		"k-agreement (k=1) holds", "bivalent",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunDetectsViolation(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-proto", "pair", "-n", "3"}, &out)
	if !errors.Is(err, errViolation) {
		t.Fatalf("err = %v, want errViolation", err)
	}
	if !strings.Contains(out.String(), "AGREEMENT VIOLATION") {
		t.Error("violation not reported")
	}
}

func TestRunAblationMargin1Violates(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-proto", "ablation-margin1", "-n", "3", "-k", "1", "-m", "2", "-max", "20000"}, &out)
	if !errors.Is(err, errViolation) {
		t.Fatalf("err = %v, want errViolation for margin-1 variant", err)
	}
	got := out.String()
	for _, want := range []string{
		"protocol: ablation(n=3,k=1,m=2,margin=1,objs=2,conflict=true,tie=lowest), 2 objects, inputs [0 1 0]\n",
		"explored 7213 configurations in ",
		"decided values reachable: [0 1]; max distinct decided together: 2\n",
		"AGREEMENT VIOLATION: configuration with decided [0 1]\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunExplicitInputs(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-proto", "pair", "-n", "2", "-inputs", "1,1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "inputs [1 1]") {
		t.Errorf("inputs not echoed:\n%s", got)
	}
	if !strings.Contains(got, "univalent") {
		t.Errorf("unanimous inputs should be univalent:\n%s", got)
	}
}

// TestRunEngineFlagsDoNotChangeResults: the -workers/-stringkeys/-store
// knobs tune the engine, never the answer; every combination prints the
// same exploration counts and verdicts.
func TestRunEngineFlagsDoNotChangeResults(t *testing.T) {
	extract := func(args ...string) (string, string) {
		t.Helper()
		var out strings.Builder
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		var explored, decided string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "explored ") {
				explored = strings.Fields(line)[1] // the configuration count
			}
			if strings.HasPrefix(line, "decided values") {
				decided = line
			}
		}
		return explored, decided
	}
	baseExplored, baseDecided := extract("-proto", "pair", "-n", "2", "-workers", "1")
	for _, args := range [][]string{
		{"-proto", "pair", "-n", "2", "-workers", "4"},
		{"-proto", "pair", "-n", "2", "-workers", "4", "-store", "spill"},
		{"-proto", "pair", "-n", "2", "-workers", "2", "-stringkeys"},
	} {
		explored, decided := extract(args...)
		if explored != baseExplored || decided != baseDecided {
			t.Errorf("%v: explored %s / %q, want %s / %q", args, explored, decided, baseExplored, baseDecided)
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
