package harness

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/lowerbound"
)

// This file deduplicates the CLI flag blocks of the cmd/ binaries: the
// protocol-instance flags (-n/-k/-m), the validation flags
// (-schedules/-seed), the search-limit flags (-max/-depth) and the
// frontier-engine flags (-workers/keying/-store/-membudget/
// -progress) are each declared once here, with one help text, so mcheck,
// lbcheck, sweep, table1, ablate and swaprace cannot drift apart. The
// profiling flags have the same treatment in internal/prof.

// InstanceFlags are the protocol-instance flags shared by every checker
// binary.
type InstanceFlags struct {
	// N and K are -n and -k.
	N, K *int
	// M is -m, or nil when the command has no input-domain knob.
	M *int
}

// RegisterInstanceFlags declares -n and -k (and -m when defM > 0) on fs
// with the given defaults.
func RegisterInstanceFlags(fs *flag.FlagSet, defN, defK, defM int) InstanceFlags {
	f := InstanceFlags{
		N: fs.Int("n", defN, "number of processes"),
		K: fs.Int("k", defK, "agreement parameter"),
	}
	if defM > 0 {
		f.M = fs.Int("m", defM, "input domain size")
	}
	return f
}

// ValidationFlags are the adversarial-schedule validation flags.
type ValidationFlags struct {
	// Schedules and Seed are -schedules and -seed.
	Schedules *int
	Seed      *int64
}

// RegisterValidationFlags declares -schedules and -seed on fs.
func RegisterValidationFlags(fs *flag.FlagSet, defSchedules int, defSeed int64) ValidationFlags {
	return ValidationFlags{
		Schedules: fs.Int("schedules", defSchedules, "adversarial schedules per validation (0 = default)"),
		Seed:      fs.Int64("seed", defSeed, "schedule seed"),
	}
}

// conflictHelp renders, from check.ModeConflicts, what mode m cannot be
// combined with. Flag validation, the README matrix and check's
// TestModeMatrix read the same table, so -help cannot drift.
func conflictHelp(m check.Mode) string {
	var with []string
	for _, c := range check.ModeConflicts {
		switch m {
		case c.A:
			with = append(with, c.B.String())
		case c.B:
			with = append(with, c.A.String())
		}
	}
	return fmt.Sprintf("%s cannot be combined with %s", m, strings.Join(with, ", "))
}

// LimitFlags are the search-budget flags.
type LimitFlags struct {
	// Max and Depth are -max and -depth.
	Max, Depth *int
}

// RegisterLimitFlags declares -max and -depth on fs.
func RegisterLimitFlags(fs *flag.FlagSet, defMax, defDepth int) LimitFlags {
	return LimitFlags{
		Max:   fs.Int("max", defMax, "configuration budget (0 = the scenario default)"),
		Depth: fs.Int("depth", defDepth, "depth cap (0 = the scenario default, or none)"),
	}
}

// ExploreLimits assembles check.ExploreLimits from the parsed flags.
func (f LimitFlags) ExploreLimits() check.ExploreLimits {
	return check.ExploreLimits{MaxConfigs: *f.Max, MaxDepth: *f.Depth}
}

// StoreFlags are the state-store selection flags alone — for commands
// (sweep) whose remaining engine knobs are grid axes, not flags.
type StoreFlags struct {
	store     *string
	memBudget *string
}

// RegisterStoreFlags declares -store and -membudget on fs.
func RegisterStoreFlags(fs *flag.FlagSet) *StoreFlags {
	return &StoreFlags{
		store:     fs.String("store", "", "state store: mem (in-memory, the default) or spill (disk-spilling: visited fingerprints and frontier segments spill to disk under -membudget); "+conflictHelp(check.ModeSpill)),
		memBudget: fs.String("membudget", "", "spill-store resident-memory budget, e.g. 64MB or 1GiB (default 256MiB; meaningful with -store=spill)"),
	}
}

// Store returns the selected backend ("" = the default, mem).
func (f *StoreFlags) Store() string { return *f.store }

// MemBudgetText returns the raw -membudget value (parsed by MemBudget).
func (f *StoreFlags) MemBudgetText() string { return *f.memBudget }

// MemBudget parses -membudget into bytes (0 when unset).
func (f *StoreFlags) MemBudget() (int64, error) {
	b, err := ParseByteSize(*f.memBudget)
	if err != nil {
		return 0, fmt.Errorf("-membudget: %w", err)
	}
	return b, nil
}

// EngineFlags bundles the full frontier-engine flag block shared by
// mcheck and lbcheck: -workers, the keying toggle, -store,
// -membudget, -reduce and -progress. The keying toggle keeps each
// command's historical polarity: commands defaulting to fingerprint
// dedup register -stringkeys, commands defaulting to exact keys (the
// certificate searches) register -fingerprints.
type EngineFlags struct {
	*StoreFlags
	fs           *flag.FlagSet
	workers      *int
	flip         *bool
	exactDefault bool
	reduce       *string
	order        *string
	progress     *bool
	checkpoint   *string
	ckptEvery    *int
}

// RegisterEngineFlags declares the engine flag block on fs.
func RegisterEngineFlags(fs *flag.FlagSet, exactKeysDefault bool) *EngineFlags {
	f := &EngineFlags{
		StoreFlags:   RegisterStoreFlags(fs),
		fs:           fs,
		exactDefault: exactKeysDefault,
		workers:      fs.Int("workers", 0, "engine worker goroutines (0 = all cores); results never depend on it"),
		reduce:       fs.String("reduce", "", "state-space reduction: none (default) or sym (process-symmetry quotient over classes the protocol declares); sound for exploration/valency questions; sym+sleep is a deprecated synonym of sym; "+conflictHelp(check.ModeReduce)),
		order:        fs.String("order", "", "exploration order: levelsync (BFS level barriers, the default) or async (barrier-free work stealing: same visited set and verdicts, no depth metadata); "+conflictHelp(check.ModeAsync)),
		progress:     fs.Bool("progress", false, "report per-level engine throughput to stderr (not with -distributed)"),
		checkpoint:   fs.String("checkpoint", "", "checkpoint directory: snapshot exploration state at level barriers and resume a killed run from it with the identical final verdict; "+conflictHelp(check.ModeCheckpoint)),
		ckptEvery:    fs.Int("checkpointevery", 0, "checkpoint every N-th level barrier (0 = every barrier; meaningful with -checkpoint)"),
	}
	if exactKeysDefault {
		f.flip = fs.Bool("fingerprints", false, "dedup on 64-bit fingerprints instead of exact string keys (leaner, ~2^-64 per-pair collision risk); "+conflictHelp(check.ModeStringKeys))
	} else {
		f.flip = fs.Bool("stringkeys", false, "dedup on exact string keys instead of 64-bit fingerprints (immune to hash collisions, higher cost); "+conflictHelp(check.ModeStringKeys))
	}
	return f
}

// StringKeys reports the effective keying after the toggle.
func (f *EngineFlags) StringKeys() bool {
	if f.exactDefault {
		return !*f.flip
	}
	return *f.flip
}

// Options assembles check.EngineOptions and checks them with
// check.EngineOptions.Validate (which owns every rule of the engine's
// own: negative counts, unknown names, a budget without the spill store,
// the mode conflicts), so a bad setting is a usage error before anything
// runs. progressW receives per-level throughput when -progress was set
// (pass stderr so stdout stays parseable); nil disables it regardless.
func (f *EngineFlags) Options(progressW io.Writer) (check.EngineOptions, error) {
	return f.options(false, progressW)
}

// options is Options for an exploration or for the witness-producing
// searches, which always run with provenance.
func (f *EngineFlags) options(provenance bool, progressW io.Writer) (check.EngineOptions, error) {
	budget, err := f.MemBudget()
	if err != nil {
		return check.EngineOptions{}, err
	}
	opts := check.EngineOptions{
		Workers:         *f.workers,
		StringKeys:      f.StringKeys(),
		Store:           f.Store(),
		MemBudget:       budget,
		Reduction:       *f.reduce,
		Order:           *f.order,
		Provenance:      provenance,
		Checkpoint:      *f.checkpoint,
		CheckpointEvery: *f.ckptEvery,
	}
	// -distributed is DistFlags', declared on the same set by the commands
	// that can coordinate a distributed run; it is a mode like the others.
	distributed := false
	if fl := f.fs.Lookup("distributed"); fl != nil {
		distributed = fl.Value.String() == "true"
	}
	if err := opts.Validate(distributed); err != nil {
		return check.EngineOptions{}, err
	}
	// What is left are the rules of the command line alone.
	if distributed && *f.progress {
		return check.EngineOptions{}, fmt.Errorf("-progress cannot be combined with -distributed: the coordinator runs no engine, so it has no level to report")
	}
	if *f.ckptEvery > 0 && *f.checkpoint == "" {
		return check.EngineOptions{}, fmt.Errorf("-checkpointevery requires -checkpoint")
	}
	if *f.progress && progressW != nil {
		opts.Progress = check.ProgressPrinter(progressW)
	}
	return opts, nil
}

// SearchLimits threads the engine flags into lower-bound search limits
// with the given budget. It validates them with provenance first, so a
// reduction or the async order is an error here (ErrIncompatibleModes),
// never a limit the search would carry.
func (f *EngineFlags) SearchLimits(maxConfigs, maxDepth int, progressW io.Writer) (lowerbound.SearchLimits, error) {
	o, err := f.options(true, progressW)
	if err != nil {
		return lowerbound.SearchLimits{}, err
	}
	return lowerbound.SearchLimits{
		MaxConfigs: maxConfigs, MaxDepth: maxDepth,
		Workers: o.Workers, Fingerprints: !o.StringKeys, Store: o.Store, MemBudget: o.MemBudget,
		Progress: o.Progress,
	}, nil
}

// ByteSizeFlag is a flag.Value for human-readable byte sizes ("64MB",
// "1GiB", "1048576"): the text is parsed by ParseByteSize at flag-parse
// time, so a typo fails in the usage error rather than mid-run. The
// zero value means "unset" (0 bytes).
type ByteSizeFlag struct {
	text  string
	bytes int64
}

// RegisterByteSizeFlag declares a byte-size flag on fs. The default
// must be a valid size literal ("" for none); an invalid default is a
// programming error and panics at registration.
func RegisterByteSizeFlag(fs *flag.FlagSet, name, def, usage string) *ByteSizeFlag {
	f := &ByteSizeFlag{}
	if def != "" {
		if err := f.Set(def); err != nil {
			panic(fmt.Sprintf("harness: -%s default: %v", name, err))
		}
	}
	fs.Var(f, name, usage)
	return f
}

// String returns the text as given (flag.Value).
func (f *ByteSizeFlag) String() string { return f.text }

// Set parses and records a size (flag.Value).
func (f *ByteSizeFlag) Set(s string) error {
	b, err := ParseByteSize(s)
	if err != nil {
		return err
	}
	f.text, f.bytes = s, b
	return nil
}

// Bytes returns the parsed size (0 when unset).
func (f *ByteSizeFlag) Bytes() int64 { return f.bytes }

// byteSuffixes maps size suffixes to multipliers, longest first so that
// "MiB" is not parsed as "B" with trailing garbage.
var byteSuffixes = []struct {
	suffix string
	mult   int64
}{
	{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
	{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
	{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
	{"B", 1},
}

// ParseByteSize parses a human-readable byte size: a plain integer byte
// count ("1048576") or an integer with a binary suffix ("64MB", "1GiB",
// "512k"), case-insensitive. The empty string parses to 0 ("use the
// default").
func ParseByteSize(s string) (int64, error) {
	text := strings.TrimSpace(s)
	if text == "" {
		return 0, nil
	}
	upper := strings.ToUpper(text)
	mult := int64(1)
	for _, suf := range byteSuffixes {
		if strings.HasSuffix(upper, suf.suffix) {
			mult = suf.mult
			upper = strings.TrimSpace(strings.TrimSuffix(upper, suf.suffix))
			break
		}
	}
	n, err := strconv.ParseInt(upper, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q (want e.g. 1048576, 64MB, 1GiB)", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}

// FormatByteSize renders n with the largest exact-enough binary unit
// (one decimal), for human store-statistics lines.
func FormatByteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
