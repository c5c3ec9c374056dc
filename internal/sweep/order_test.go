package sweep

import (
	"reflect"
	"testing"

	"repro/internal/check"
)

// --- The order axis ---

// TestOrderAxisOnViolationRows is the regression test for async-order
// statistics on violation-bearing records, mirroring the reduce-axis
// test: the explore-anon negative control finds its violation under the
// async order, and the JSONL record must still carry order, the
// quiescence counter and the store statistics — not just the verdict.
func TestOrderAxisOnViolationRows(t *testing.T) {
	rec := RunCellRecord(Cell{
		Row: "explore-anon", N: 4, K: 1,
		Engine:     EngineSpec{Order: check.OrderAsync, Workers: 4},
		MaxConfigs: 30000,
	})
	if rec.Status != StatusOK {
		t.Fatalf("status %q (%s), want ok (violation expected and found)", rec.Status, rec.Error)
	}
	if rec.Violation == nil {
		t.Fatal("no witness schedule on the negative control")
	}
	if rec.Order != check.OrderAsync {
		t.Errorf("record carries order=%q, want %q", rec.Order, check.OrderAsync)
	}
	if rec.QuiescenceScans < 1 {
		t.Errorf("quiescence_scans = %d on a terminated async run, want >= 1", rec.QuiescenceScans)
	}
	if rec.Store == "" {
		t.Error("store stats missing from violation record")
	}
}

// TestOrderAxisMatchesLevelsync: the async cell visits the same state
// count and decided set as the level-synchronized one — the sweep-level
// face of the differential contract. The instance completes inside its
// budget: on a truncated run async's survivors (and so its decided set)
// are timing-dependent by design.
func TestOrderAxisMatchesLevelsync(t *testing.T) {
	base := RunCellRecord(Cell{Row: "explore-anon", N: 4, K: 1, MaxConfigs: 100000})
	async := RunCellRecord(Cell{Row: "explore-anon", N: 4, K: 1, MaxConfigs: 100000,
		Engine: EngineSpec{Order: check.OrderAsync, Workers: 4}})
	if base.Status != StatusOK || async.Status != StatusOK {
		t.Fatalf("statuses %q / %q, want ok", base.Status, async.Status)
	}
	if !base.Complete || !async.Complete {
		t.Fatalf("complete = %t / %t: the comparison needs an instance that fits its budget", base.Complete, async.Complete)
	}
	if base.Order != check.OrderLevelSync {
		t.Errorf("default cell carries order=%q, want %q", base.Order, check.OrderLevelSync)
	}
	if async.States != base.States {
		t.Errorf("async visited %d states, levelsync %d; orders must agree", async.States, base.States)
	}
	if !reflect.DeepEqual(async.Decided, base.Decided) {
		t.Errorf("decided sets differ: levelsync %v, async %v", base.Decided, async.Decided)
	}
}

// TestOrderAxisIgnoredByCertificateRows: a certificate row swept with
// the order axis must still pass — SearchLimits drops the axis, because
// witness extraction needs provenance chains that async cannot maintain.
func TestOrderAxisIgnoredByCertificateRows(t *testing.T) {
	rec := RunCellRecord(Cell{
		Row: "theorem10", N: 4, K: 2,
		Engine: EngineSpec{Order: check.OrderAsync},
	})
	if rec.Status != StatusOK {
		t.Fatalf("theorem10 with order axis: status %q (%s), want ok", rec.Status, rec.Error)
	}
	if rec.Order != "" {
		t.Errorf("certificate record carries order=%q; the axis must be dropped", rec.Order)
	}
}

// TestEngineSpecOrderLabel: the order axis lands in the cell ID (so
// checkpoints distinguish async cells) and the default label is
// unchanged (so existing checkpoint files still resume).
func TestEngineSpecOrderLabel(t *testing.T) {
	if got := (EngineSpec{Order: check.OrderAsync}).label(); got != "w0-s0-default-async" {
		t.Errorf("async label = %q, want w0-s0-default-async", got)
	}
	if got := (EngineSpec{Order: check.OrderLevelSync}).label(); got != "w0-s0-default" {
		t.Errorf("explicit levelsync label = %q, want the default", got)
	}
	if got := (EngineSpec{Reduce: check.ReduceSym, Order: check.OrderAsync}).label(); got != "w0-s0-default-sym-async" {
		t.Errorf("combined label = %q, want w0-s0-default-sym-async", got)
	}
	// A whole cell ID as sweep resume files and mcheckd journals written
	// before the partition-count axis was retired hold it: the "s0"
	// segment stays. The deprecated sym+sleep names the sym cell.
	cell := Cell{Row: "explore", N: 4, K: 2, Engine: EngineSpec{Workers: 2, Store: check.StoreSpill, MemBudget: "64KB", Reduce: check.ReduceSymSleep}}
	if got, want := cell.ID(), "explore/n=4/k=2/w2-s0-default-spill@64KB-sym"; got != want {
		t.Errorf("cell ID = %q, want %q", got, want)
	}
}
