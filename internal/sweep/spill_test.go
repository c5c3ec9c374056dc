package sweep

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
)

// TestEngineSpecStoreLabel: default-store cells keep the historical label
// (checkpoint compatibility); spill cells extend it with the backend and
// budget.
func TestEngineSpecStoreLabel(t *testing.T) {
	if got := (EngineSpec{Workers: 2, Keys: "string"}).label(); got != "w2-s0-string" {
		t.Errorf("default-store label = %q, want historical w2-s0-string", got)
	}
	got := (EngineSpec{Store: "spill", MemBudget: "8KB"}).label()
	if got != "w0-s0-default-spill@8KB" {
		t.Errorf("spill label = %q", got)
	}
	if !strings.Contains((Cell{Row: "explore", N: 4, K: 1, Engine: EngineSpec{Store: "spill"}}).ID(), "-spill") {
		t.Error("cell ID does not carry the store")
	}
}

// TestEngineSpecValidation: unknown stores and keyings, bad budgets and
// negative worker counts fail at grid expansion, before any cell runs.
func TestEngineSpecValidation(t *testing.T) {
	g := Grid{Rows: []string{"explore"}, Ns: []int{3}, Ks: []int{1},
		Engines: []EngineSpec{{Store: "floppy"}}}
	if _, err := g.Cells(); err == nil {
		t.Error("unknown store accepted by Cells")
	}
	g.Engines = []EngineSpec{{Store: "spill", MemBudget: "lots"}}
	if _, err := g.Cells(); err == nil {
		t.Error("bad mem_budget accepted by Cells")
	}
	g.Engines = []EngineSpec{{MemBudget: "1GB"}}
	if _, err := g.Cells(); err == nil {
		t.Error("mem_budget without store spill accepted by Cells")
	}
	if _, err := ParseGrid([]byte(`{"engines":[{"store":"floppy"}]}`)); err == nil {
		t.Error("unknown store accepted by ParseGrid")
	}
	if _, err := ParseGrid([]byte(`{"engines":[{"keys":"exact"}]}`)); err == nil {
		t.Error("unknown keys accepted by ParseGrid")
	}
	if _, err := ParseGrid([]byte(`{"engines":[{"workers":-2}]}`)); err == nil {
		t.Error("negative workers accepted by ParseGrid")
	}
}

// TestExploreCellSpillRecord is the sweep half of the beyond-RAM
// acceptance criterion: an exploration cell whose visited set far exceeds
// the budget completes under -store=spill with spill statistics in its
// record, and produces identical classification results to the in-memory
// store.
func TestExploreCellSpillRecord(t *testing.T) {
	mkCell := func(e EngineSpec) Cell {
		return Cell{Grid: "t", Row: "explore", N: 4, K: 1, Engine: e, MaxConfigs: 20000}
	}
	mem := RunCellRecord(mkCell(EngineSpec{}))
	if mem.Status != StatusOK {
		t.Fatalf("mem cell status %q: %s", mem.Status, mem.Error)
	}
	if mem.Store != check.StoreMem || mem.PeakResidentBytes == 0 {
		t.Errorf("mem record store stats missing: store=%q peak=%d", mem.Store, mem.PeakResidentBytes)
	}

	// ~20000 visited fingerprints need ~160KB resident; 8KB forces real
	// spills at almost every barrier.
	spill := RunCellRecord(mkCell(EngineSpec{Store: "spill", MemBudget: "8KB"}))
	if spill.Status != StatusOK {
		t.Fatalf("spill cell status %q: %s", spill.Status, spill.Error)
	}
	if spill.Store != check.StoreSpill || spill.BytesSpilled == 0 || spill.RunsWritten == 0 {
		t.Errorf("spill record lacks spill stats: %+v", spill)
	}

	// Identical classification results across stores.
	if spill.States != mem.States || spill.Complete != mem.Complete {
		t.Errorf("states/complete diverged: spill %d/%v, mem %d/%v",
			spill.States, spill.Complete, mem.States, mem.Complete)
	}
	if !reflect.DeepEqual(spill.Decided, mem.Decided) {
		t.Errorf("decided diverged: spill %v, mem %v", spill.Decided, mem.Decided)
	}
}
