package check

import (
	"errors"
	"fmt"
)

// This file is the one place engine-mode compatibility is declared. The
// engine, sweep.EngineSpec.Validate and harness.EngineFlags.Validate all
// call Modes.Validate; the README matrix and the mode-matrix test
// (modes_test.go) are read off ModeConflicts.

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
	{ModeAsync, ModeProvenance, "async admission order is timing-dependent, so the deterministic first-reached parent chains that witness schedules replay do not exist"},
	{ModeAsync, ModeStringKeys, "without the level barrier, exact keys pick a timing-dependent representative among colliding encodings"},
	{ModeAsync, ModeSpill, "async keeps its frontier in the workers' deques, so a store budget bounds nothing; levelsync with the spill store is faster and smaller"},
	{ModeAsync, ModeDist, "each peer would test the global budget against its own admission count, so a capped run visits up to peers x MaxConfigs; levelsync over peers is exact and no slower"},
	{ModeAsync, ModeCheckpoint, "a snapshot is the visited set and the next frontier at a level barrier, and the async order has no barrier (rerun from scratch instead: restart == resume for its verdict)"},
	{ModeCheckpoint, ModeProvenance, "parent chains are in-RAM pointers that cannot be persisted across a crash"},
	{ModeReduce, ModeProvenance, "a quotient merges schedules, so parent chains replayed through it are not valid executions"},
	{ModeReduce, ModeStringKeys, "exact keys dedup on full encodings, which orbit members do not share"},
	{ModeDist, ModeProvenance, "parent chains are in-RAM pointers that cannot cross the wire"},
	{ModeDist, ModeStringKeys, "exact keys would ship full encodings on every admission probe"},
	{ModeDist, ModeCheckpoint, "a multi-process snapshot needs coordinator-side generations (rerun from scratch instead: restart == resume for a deterministic run)"},
}

// Modes is the part of a run's configuration the compatibility rules
// range over, in the vocabulary of EngineOptions.
type Modes struct {
	Order      string
	Reduction  string
	Store      string
	StringKeys bool
	Provenance bool
	Checkpoint bool
	Dist       bool
}

// Validate rejects unknown Order and Reduction names, and any pair listed
// in ModeConflicts with an error wrapping ErrIncompatibleModes. (Store
// names are checked where the store is built.)
func (m Modes) Validate() error {
	_, _, err := m.resolve()
	return err
}

// resolve is Validate that also returns the parsed order and reduction.
func (m Modes) resolve() (async, sym bool, err error) {
	if async, err = parseOrder(m.Order); err != nil {
		return
	}
	if sym, err = parseReduction(m.Reduction); err != nil {
		return
	}
	set := ModeAsync.when(async) | ModeReduce.when(sym) | ModeSpill.when(m.Store == StoreSpill) |
		ModeStringKeys.when(m.StringKeys) | ModeProvenance.when(m.Provenance) | ModeCheckpoint.when(m.Checkpoint) | ModeDist.when(m.Dist)
	for _, c := range ModeConflicts {
		if set&c.A != 0 && set&c.B != 0 {
			err = fmt.Errorf("frontier engine: %w: %s cannot be combined with %s: %s", ErrIncompatibleModes, c.A, c.B, c.Why)
			return
		}
	}
	return
}
