package sweep

import (
	"testing"

	"repro/internal/check"
)

// --- The reduce axis ---

// TestReduceAxisOnViolationRows is the regression test for reduction
// statistics on violation-bearing records: the symmetric explore-anon
// control finds an agreement violation (it is a negative control), and
// its JSONL record must still carry the reduce mode, the pruning
// counters and the store statistics — not just the verdict. Stats must
// never be an ok-rows-only privilege.
func TestReduceAxisOnViolationRows(t *testing.T) {
	for _, mode := range []string{check.ReduceSym} {
		rec := RunCellRecord(Cell{
			Row: "explore-anon", N: 4, K: 1,
			Engine:     EngineSpec{Reduce: mode},
			MaxConfigs: 30000,
		})
		if rec.Status != StatusOK {
			t.Fatalf("reduce=%s: status %q (%s), want ok (violation expected and found)", mode, rec.Status, rec.Error)
		}
		if rec.Violation == nil {
			t.Fatalf("reduce=%s: no witness schedule on the negative control", mode)
		}
		if rec.Reduce != mode {
			t.Errorf("reduce=%s: record carries reduce=%q", mode, rec.Reduce)
		}
		if rec.StatesPruned == 0 {
			t.Errorf("reduce=%s: states_pruned = 0 on a symmetric instance", mode)
		}
		if rec.Store == "" {
			t.Errorf("reduce=%s: store stats missing from violation record", mode)
		}
	}
}

// TestReduceAxisShrinksExploreAnon: the quotiented cell visits strictly
// fewer states than the unreduced one and reaches the same decided set —
// the axis does real work on a symmetric instance.
func TestReduceAxisShrinksExploreAnon(t *testing.T) {
	base := RunCellRecord(Cell{Row: "explore-anon", N: 4, K: 1, MaxConfigs: 100000})
	sym := RunCellRecord(Cell{Row: "explore-anon", N: 4, K: 1, MaxConfigs: 100000,
		Engine: EngineSpec{Reduce: check.ReduceSym}})
	if base.Status != StatusOK || sym.Status != StatusOK {
		t.Fatalf("statuses %q / %q, want ok", base.Status, sym.Status)
	}
	if sym.States >= base.States {
		t.Errorf("sym visited %d states, want < unreduced %d", sym.States, base.States)
	}
	if len(base.Decided) != len(sym.Decided) {
		t.Errorf("decided sets differ: unreduced %v, sym %v", base.Decided, sym.Decided)
	}
}

// TestReduceAxisIgnoredByCertificateRows: a certificate row swept with
// the reduce axis must still pass — SearchLimits drops the axis, because
// witness extraction rejects reductions.
func TestReduceAxisIgnoredByCertificateRows(t *testing.T) {
	rec := RunCellRecord(Cell{
		Row: "theorem10", N: 4, K: 2,
		Engine: EngineSpec{Reduce: check.ReduceSym},
	})
	if rec.Status != StatusOK {
		t.Fatalf("theorem10 with reduce axis: status %q (%s), want ok", rec.Status, rec.Error)
	}
	if limits := (Cell{Engine: EngineSpec{Reduce: check.ReduceSym}}).SearchLimits(100, 10); limits.Reduction != "" {
		t.Errorf("SearchLimits carried Reduction %q; certificate searches must run unreduced", limits.Reduction)
	}
}

// TestEngineSpecReduceLabel: the reduce axis lands in the cell ID (so
// checkpoints distinguish reduced cells) and the default label is
// unchanged (so existing checkpoint files still resume).
func TestEngineSpecReduceLabel(t *testing.T) {
	if got := (EngineSpec{}).label(); got != "w0-s0-default" {
		t.Errorf("default label = %q, want w0-s0-default", got)
	}
	if got := (EngineSpec{Reduce: check.ReduceSym}).label(); got != "w0-s0-default-sym" {
		t.Errorf("sym label = %q", got)
	}
	if got := (EngineSpec{Reduce: check.ReduceNone}).label(); got != "w0-s0-default" {
		t.Errorf("explicit none label = %q, want the default", got)
	}
}
