package harness

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/check"
)

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		bad  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1048576", 1 << 20, false},
		{"64MB", 64 << 20, false},
		{"64MiB", 64 << 20, false},
		{"64m", 64 << 20, false},
		{"512K", 512 << 10, false},
		{"512kb", 512 << 10, false},
		{"1GiB", 1 << 30, false},
		{"2g", 2 << 30, false},
		{"128B", 128, false},
		{" 8 KB ", 8 << 10, false},
		{"-1", 0, true},
		{"12XB", 0, true},
		{"MB", 0, true},
		{"1.5MB", 0, true},
		{"9999999999G", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseByteSize(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseByteSize(%q) = %d, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

func TestFormatByteSize(t *testing.T) {
	cases := map[int64]string{
		0:         "0B",
		512:       "512B",
		8 << 10:   "8.0KiB",
		64 << 20:  "64.0MiB",
		3 << 30:   "3.0GiB",
		1536 << 0: "1.5KiB",
	}
	for in, want := range cases {
		if got := FormatByteSize(in); got != want {
			t.Errorf("FormatByteSize(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestEngineFlagsKeyingPolarity: commands defaulting to fingerprints
// register -stringkeys, commands defaulting to exact keys register
// -fingerprints, and both toggles land on the same EngineOptions fields.
func TestEngineFlagsKeyingPolarity(t *testing.T) {
	// mcheck polarity: fingerprints by default, -stringkeys opts out.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterEngineFlags(fs, false)
	if err := fs.Parse([]string{"-stringkeys", "-workers", "3", "-store", "spill", "-membudget", "4KB"}); err != nil {
		t.Fatal(err)
	}
	opts, err := f.Options(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !opts.StringKeys || opts.Workers != 3 || opts.Store != check.StoreSpill || opts.MemBudget != 4<<10 {
		t.Errorf("options = %+v, want stringkeys, 3 workers, spill@4KB", opts)
	}

	// lbcheck polarity: exact keys by default, -fingerprints opts out.
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	f = RegisterEngineFlags(fs, true)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !f.StringKeys() {
		t.Error("exact-key default command did not default to string keys")
	}
	limits, err := f.SearchLimits(1000, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if limits.Fingerprints || limits.MaxConfigs != 1000 || limits.MaxDepth != 10 {
		t.Errorf("search limits = %+v, want exact keys and the given budget", limits)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	f = RegisterEngineFlags(fs, true)
	if err := fs.Parse([]string{"-fingerprints"}); err != nil {
		t.Fatal(err)
	}
	if f.StringKeys() {
		t.Error("-fingerprints did not switch an exact-key command to fingerprints")
	}
}

// TestEngineFlagsBadBudget: an unparsable -membudget surfaces as an
// error from Options, not a silent zero.
func TestEngineFlagsBadBudget(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterEngineFlags(fs, false)
	if err := fs.Parse([]string{"-membudget", "lots"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Options(nil); err == nil {
		t.Error("bad -membudget accepted")
	}
}

// TestMemBudgetRequiresSpillStore: a budget on the in-memory store would
// be silently unenforced, so the flag pair rejects it.
func TestMemBudgetRequiresSpillStore(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterEngineFlags(fs, false)
	if err := fs.Parse([]string{"-membudget", "1GB"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Options(nil); err == nil {
		t.Error("-membudget without -store spill accepted")
	}
	if _, err := f.SearchLimits(1000, 0, nil); err == nil {
		t.Error("-membudget without -store spill accepted by SearchLimits")
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	f = RegisterEngineFlags(fs, false)
	if err := fs.Parse([]string{"-store", "spill", "-membudget", "1GB"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Options(nil); err != nil {
		t.Errorf("-store spill -membudget 1GB rejected: %v", err)
	}
}

// TestInstanceFlagsOptionalM: commands without an input-domain knob must
// not grow a -m flag.
func TestInstanceFlagsOptionalM(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	inst := RegisterInstanceFlags(fs, 6, 2, 0)
	if inst.M != nil || fs.Lookup("m") != nil {
		t.Error("defM=0 still registered -m")
	}
	if fs.Lookup("n") == nil || fs.Lookup("k") == nil {
		t.Error("-n/-k not registered")
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	inst = RegisterInstanceFlags(fs, 3, 1, 2)
	if inst.M == nil || fs.Lookup("m") == nil {
		t.Error("defM>0 did not register -m")
	}
}

// ByteSizeFlag parses at flag-parse time, so an invalid size surfaces
// as a usage error, and carries both the text and the byte count.
func TestByteSizeFlag(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterByteSizeFlag(fs, "budget", "", "test budget")
	if err := fs.Parse([]string{"-budget", "64MB"}); err != nil {
		t.Fatal(err)
	}
	if f.Bytes() != 64<<20 || f.String() != "64MB" {
		t.Fatalf("parsed %d %q, want %d %q", f.Bytes(), f.String(), int64(64<<20), "64MB")
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterByteSizeFlag(fs, "budget", "", "test budget")
	if err := fs.Parse([]string{"-budget", "lots"}); err == nil {
		t.Fatal("invalid byte size accepted at parse time")
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	f = RegisterByteSizeFlag(fs, "budget", "1GiB", "test budget")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Bytes() != 1<<30 {
		t.Fatalf("default not applied: %d", f.Bytes())
	}
}

// TestHelpListsModeConflicts: the flag help is generated from
// check.ModeConflicts, so every row of the table shows up under the flag
// of each of its sides that has one (provenance has none: the command,
// not a flag, decides it).
func TestHelpListsModeConflicts(t *testing.T) {
	for _, exactDefault := range []bool{false, true} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		RegisterEngineFlags(fs, exactDefault)
		RegisterDistFlags(fs)
		keys := "stringkeys"
		if exactDefault {
			keys = "fingerprints"
		}
		flagOf := map[check.Mode]string{
			check.ModeAsync: "order", check.ModeReduce: "reduce", check.ModeSpill: "store",
			check.ModeStringKeys: keys, check.ModeCheckpoint: "checkpoint", check.ModeDist: "distributed",
		}
		for _, c := range check.ModeConflicts {
			listed := false
			for _, side := range [][2]check.Mode{{c.A, c.B}, {c.B, c.A}} {
				name, ok := flagOf[side[0]]
				if !ok {
					continue
				}
				listed = true
				if usage := fs.Lookup(name).Usage; !strings.Contains(usage, side[1].String()) {
					t.Errorf("-%s help does not name its conflict with %s: %q", name, side[1], usage)
				}
			}
			if !listed {
				t.Errorf("conflict %s × %s appears under no flag", c.A, c.B)
			}
		}
	}
}
