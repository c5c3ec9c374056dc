package check

import (
	"errors"
	"fmt"
)

// This file is the one place engine settings are checked: every entry
// point that accepts them calls EngineOptions.Validate, and the README
// matrix and the mode-matrix test (modes_test.go) are read off
// ModeConflicts.

// ErrIncompatibleModes is wrapped by every rejection of a combination of
// engine modes, so callers classify it with errors.Is (mcheckd answers
// 400, the CLIs exit 2) instead of matching message text.
var ErrIncompatibleModes = errors.New("incompatible engine modes")

// Mode is one engine feature that takes part in a compatibility rule.
type Mode uint8

const (
	// ModeAsync is EngineOptions.Order "async".
	ModeAsync Mode = 1 << iota
	// ModeReduce is EngineOptions.Reduction "sym" (or its synonym
	// "sym+sleep").
	ModeReduce
	// ModeStringKeys is EngineOptions.StringKeys.
	ModeStringKeys
	// ModeProvenance is EngineOptions.Provenance.
	ModeProvenance
	// ModeCheckpoint is a non-empty EngineOptions.Checkpoint.
	ModeCheckpoint
	// ModeDist is a non-nil EngineOptions.Dist.
	ModeDist
	// ModeSpill is EngineOptions.Store "spill".
	ModeSpill
)

func (m Mode) String() string {
	switch m {
	case ModeAsync:
		return "order " + OrderAsync
	case ModeReduce:
		return "a reduction"
	case ModeStringKeys:
		return "exact string keys"
	case ModeProvenance:
		return "provenance (witness-producing searches)"
	case ModeCheckpoint:
		return "checkpointing"
	case ModeDist:
		return "a distributed run"
	case ModeSpill:
		return "store " + StoreSpill
	default:
		return fmt.Sprintf("Mode(%#x)", uint8(m))
	}
}

// when returns m if on and no mode otherwise.
func (m Mode) when(on bool) Mode {
	if on {
		return m
	}
	return 0
}

// ModeConflicts lists every pair of modes that cannot run together and
// why; any combination containing no listed pair is legal.
var ModeConflicts = []struct {
	A, B Mode
	Why  string
}{
	{ModeAsync, ModeProvenance, "async has no level whose claims the provenance tie-break could settle, so the first-reached path a witness schedule replays would depend on timing"},
	{ModeAsync, ModeStringKeys, "without the level barrier, exact keys pick a timing-dependent representative among colliding encodings"},
	{ModeAsync, ModeSpill, "async keeps its frontier in the workers' deques, so a store budget bounds nothing; levelsync with the spill store is faster and smaller"},
	{ModeAsync, ModeDist, "each peer would test the global budget against its own admission count, so a capped run visits up to peers x MaxConfigs; levelsync over peers is exact and no slower"},
	{ModeAsync, ModeCheckpoint, "a snapshot is the visited set and the next frontier at a level barrier, and the async order has no barrier (rerun from scratch instead: restart == resume for its verdict)"},
	{ModeCheckpoint, ModeProvenance, "a snapshot would have to persist the level's settled provenance paths with its frontier, and its layout has no place for them"},
	{ModeReduce, ModeProvenance, "a quotient merges schedules, so a path recorded through it is not a valid execution"},
	{ModeReduce, ModeStringKeys, "exact keys dedup on ref tuples, which orbit members do not share"},
	{ModeDist, ModeProvenance, "a remote record carries no parent fingerprint or key, so the owning peer cannot settle the provenance tie-break among claims from other peers"},
	{ModeDist, ModeStringKeys, "exact keys are refs into one process's dictionary, which no other peer can read"},
	{ModeDist, ModeCheckpoint, "a multi-process snapshot needs coordinator-side generations (rerun from scratch instead: restart == resume for a deterministic run)"},
}

// Validate checks o on entry to a run, as the engine, the command-line
// flag blocks, sweep's engine specs, a distributed coordinator (before any
// HELLO) and its peers (before HELLOACK) all do: the worker count and
// CheckpointEvery must not be negative, the store, order and reduction
// names must be known, a MemBudget needs the spill store, and no pair
// listed in ModeConflicts may be set together (an error wrapping
// ErrIncompatibleModes). distributed says whether the run is distributed,
// which a coordinator knows before any peer has a link; the engine passes
// o.Dist != nil. Messages name each option by its command-line flag.
func (o EngineOptions) Validate(distributed bool) error {
	_, _, err := o.resolve(distributed)
	return err
}

// resolve is Validate that also returns the parsed order and reduction.
func (o EngineOptions) resolve(distributed bool) (async, sym bool, err error) {
	switch {
	case o.Workers < 0:
		err = fmt.Errorf("frontier engine: -workers %d must not be negative", o.Workers)
	case o.CheckpointEvery < 0:
		err = fmt.Errorf("frontier engine: -checkpointevery %d must not be negative", o.CheckpointEvery)
	case o.Store != "" && o.Store != StoreMem && o.Store != StoreSpill:
		err = fmt.Errorf("frontier engine: unknown store %q (have %q, %q)", o.Store, StoreMem, StoreSpill)
	case o.MemBudget != 0 && o.Store != StoreSpill:
		err = fmt.Errorf("frontier engine: -membudget requires -store %s (the in-memory store is unbudgeted)", StoreSpill)
	}
	if err != nil {
		return
	}
	if async, err = parseOrder(o.Order); err != nil {
		return
	}
	if sym, err = parseReduction(o.Reduction); err != nil {
		return
	}
	set := ModeAsync.when(async) | ModeReduce.when(sym) | ModeSpill.when(o.Store == StoreSpill) |
		ModeStringKeys.when(o.StringKeys) | ModeProvenance.when(o.Provenance) | ModeCheckpoint.when(o.Checkpoint != "") | ModeDist.when(distributed)
	for _, c := range ModeConflicts {
		if set&c.A != 0 && set&c.B != 0 {
			err = fmt.Errorf("frontier engine: %w: %s cannot be combined with %s: %s", ErrIncompatibleModes, c.A, c.B, c.Why)
			return
		}
	}
	return
}
