package sweep

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/lowerbound"
)

// --- Table 1 rows (ported from the harness tests when the definitions
// moved here) ---

func TestTable1RowShape(t *testing.T) {
	rows, err := Table1Rows(5, 2, harness.ValidateOptions{Schedules: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Table1Rows produced %d rows, want 8 (as in the paper)", len(rows))
	}
	for _, r := range rows {
		if r.Task == "" || r.Objects == "" || r.PaperLB == "" || r.PaperUB == "" {
			t.Errorf("row %+v has empty identity fields", r)
		}
		if strings.Contains(r.Status, "FAILED") {
			t.Errorf("row %s/%s failed validation: %s", r.Task, r.Objects, r.Status)
		}
	}
}

// TestTable1BoundsMatchPaper checks the numeric content of the regenerated
// table against the paper's formulas for several n, k.
func TestTable1BoundsMatchPaper(t *testing.T) {
	for _, tt := range []struct{ n, k int }{{4, 1}, {5, 2}, {7, 3}} {
		rows, err := Table1Rows(tt.n, tt.k, harness.ValidateOptions{Schedules: 2, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		byKey := map[string]harness.Row{}
		for _, r := range rows {
			byKey[r.Task+"/"+r.Objects] = r
		}

		// Consensus from swap: measured n-1, certified n-1 (Theorem 10, k=1).
		r := byKey["Consensus/Swap objects"]
		if r.Measured != tt.n-1 {
			t.Errorf("n=%d: consensus/swap measured %d, want n-1=%d", tt.n, r.Measured, tt.n-1)
		}
		if r.Certified != lowerbound.Theorem10Bound(tt.n, 1) {
			t.Errorf("n=%d: consensus/swap certified %d, want %d", tt.n, r.Certified, lowerbound.Theorem10Bound(tt.n, 1))
		}

		// k-set from swap: measured n-k, certified ⌈n/k⌉-1.
		var ks harness.Row
		for key, row := range byKey {
			if strings.Contains(key, "-set agreement/Swap objects") {
				ks = row
			}
		}
		if ks.Measured != tt.n-tt.k {
			t.Errorf("(n=%d,k=%d): k-set/swap measured %d, want n-k=%d", tt.n, tt.k, ks.Measured, tt.n-tt.k)
		}
		if ks.Certified != lowerbound.Theorem10Bound(tt.n, tt.k) {
			t.Errorf("(n=%d,k=%d): k-set/swap certified %d, want ⌈n/k⌉-1=%d",
				tt.n, tt.k, ks.Certified, lowerbound.Theorem10Bound(tt.n, tt.k))
		}
	}
}

func TestTable1RowsRejectsBadParams(t *testing.T) {
	if _, err := Table1Rows(3, 3, harness.ValidateOptions{}); err == nil {
		t.Error("n == k should be rejected")
	}
	if _, err := Table1Rows(3, 0, harness.ValidateOptions{}); err == nil {
		t.Error("k == 0 should be rejected")
	}
}

// --- Grid expansion ---

func TestGridExpansionShape(t *testing.T) {
	g := Grid{Name: "t", Ns: []int{4, 5}, Ks: []int{1, 2}}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// 2 ns × 2 ks × 8 table rows, every point valid (n > k).
	if want := 2 * 2 * 8; len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	// IDs must be unique: checkpoint resume keys on them.
	seen := map[string]bool{}
	for _, c := range cells {
		id := c.ID()
		if seen[id] {
			t.Fatalf("duplicate cell ID %q", id)
		}
		seen[id] = true
	}
}

func TestGridExpansionSkipsInvalidPoints(t *testing.T) {
	g := Grid{Rows: []string{"kset-swap"}, Ns: []int{2, 3}, Ks: []int{1, 2}}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Valid points: (2,1), (3,1), (3,2) — (2,2) has n <= k.
	if len(cells) != 3 {
		t.Fatalf("expanded %d cells, want 3: %+v", len(cells), cells)
	}
}

func TestGridExpansionEngineAxis(t *testing.T) {
	g := Grid{Rows: []string{"explore"}, Ns: []int{3}, Ks: []int{1},
		Engines: []EngineSpec{{Workers: 1}, {Workers: 2, Keys: "string"}}}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	if cells[0].ID() == cells[1].ID() {
		t.Fatalf("engine axis not reflected in IDs: %s", cells[0].ID())
	}
}

func TestGridExpansionRejectsUnknownRow(t *testing.T) {
	g := Grid{Rows: []string{"no-such-row"}, Ns: []int{4}, Ks: []int{1}}
	if _, err := g.Cells(); err == nil {
		t.Fatal("unknown row key must be rejected")
	}
}

func TestParseGrid(t *testing.T) {
	g, err := ParseGrid([]byte(`{"name":"x","rows":["explore"],"ns":[3],"ks":[1],"max_configs":100}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "x" || g.MaxConfigs != 100 {
		t.Fatalf("parsed grid %+v", g)
	}
	if _, err := ParseGrid([]byte(`{"rows":["bogus"]}`)); err == nil {
		t.Error("unknown row in spec must be rejected")
	}
	if _, err := ParseGrid([]byte(`{"nope":1}`)); err == nil {
		t.Error("unknown field in spec must be rejected")
	}
	if _, err := ParseGrid([]byte(`{"engines":[{"workers":2,"shards":8}]}`)); err == nil {
		t.Error("the retired shards axis in a spec must be rejected, not silently dropped")
	}
}

func TestNamedGrids(t *testing.T) {
	for _, name := range []string{"default", "small", "engine"} {
		g, err := NamedGrid(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Cells(); err != nil {
			t.Errorf("grid %s does not expand: %v", name, err)
		}
	}
	if _, err := NamedGrid("bogus"); err == nil {
		t.Error("unknown grid name must be rejected")
	}
}

// --- Runner ---

// TestRunnerMatchesSequentialRows: the concurrent grid runner must
// produce exactly the rows the sequential Table1Rows path produces —
// scenarios are independent and seeded, so parallelism cannot change the
// table.
func TestRunnerMatchesSequentialRows(t *testing.T) {
	const n, k = 4, 2
	want, err := Table1Rows(n, k, harness.ValidateOptions{Schedules: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{Ns: []int{n}, Ks: []int{k}, Schedules: 2, Seed: 1}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(cells, RunOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(want) {
		t.Fatalf("runner produced %d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Table == nil {
			t.Fatalf("cell %s missing table row", r.Cell)
		}
		if *r.Table != want[i] {
			t.Errorf("cell %s row diverged from sequential:\n got %+v\nwant %+v", r.Cell, *r.Table, want[i])
		}
	}
	rendered := RenderResults(results)
	if !strings.Contains(rendered, "Table 1 (Ovens, PODC 2022) regenerated for n=4, k=2") {
		t.Errorf("rendering missing header:\n%s", rendered)
	}
	if !strings.Contains(rendered, harness.RenderTable(want)) {
		t.Errorf("rendering diverged from sequential table:\n%s", rendered)
	}
}

func TestRunnerStreamsJSONL(t *testing.T) {
	g := Grid{Rows: []string{"consensus-readable-b2", "consensus-readable-bb"}, Ns: []int{4}, Ks: []int{1}}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	results, err := Run(cells, RunOptions{Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(results) {
		t.Fatalf("stream has %d records, want %d", len(parsed), len(results))
	}
	ids := map[string]bool{}
	for _, r := range parsed {
		ids[r.Cell] = true
		if r.Status != StatusOK {
			t.Errorf("cell %s status %s", r.Cell, r.Status)
		}
	}
	for _, c := range cells {
		if !ids[c.ID()] {
			t.Errorf("stream missing cell %s", c.ID())
		}
	}
}

// TestRunnerCheckpointSkips: cells present in the skip set must not be
// re-executed, must not be re-emitted to the stream, and must carry their
// prior record into the result set.
func TestRunnerCheckpointSkips(t *testing.T) {
	g := Grid{Rows: []string{"consensus-readable-b2", "consensus-readable-bb"}, Ns: []int{4}, Ks: []int{1}}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	prior := Result{Cell: cells[0].ID(), Row: cells[0].Row, Status: StatusOK, Measured: 42}
	var buf bytes.Buffer
	var cached, fresh int
	results, err := Run(cells, RunOptions{
		Out:  &buf,
		Skip: map[string]Result{prior.Cell: prior},
		OnResult: func(r Result, wasCached bool) {
			if wasCached {
				cached++
			} else {
				fresh++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cached != 1 || fresh != 1 {
		t.Fatalf("cached=%d fresh=%d, want 1/1", cached, fresh)
	}
	if results[0].Measured != 42 {
		t.Errorf("prior record not carried: %+v", results[0])
	}
	streamed, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 1 || streamed[0].Cell != cells[1].ID() {
		t.Errorf("stream must contain only the fresh cell, got %+v", streamed)
	}
}

func TestRunnerTimeout(t *testing.T) {
	// Register a transient slow scenario through the test hook.
	defer undoTestRow(addTestRow(RowSpec{
		Key: "test-slow",
		Run: func(cell Cell) (*Outcome, error) {
			time.Sleep(2 * time.Second)
			return &Outcome{Measured: -1, Certified: -1}, nil
		},
	}))
	rec := RunCellRecord(Cell{Row: "test-slow", N: 3, K: 1, Timeout: 50 * time.Millisecond})
	if rec.Status != StatusTimeout {
		t.Fatalf("status %s, want timeout", rec.Status)
	}
	if rec.Error == "" {
		t.Error("timeout record missing diagnosis")
	}
}

func TestRunCellRecordStatuses(t *testing.T) {
	// A violation row that expects one is ok…
	rec := RunCellRecord(Cell{Row: "violation-hunt", N: 3, K: 1})
	if rec.Status != StatusOK || rec.Violation == nil {
		t.Fatalf("violation-hunt: status %s violation %v", rec.Status, rec.Violation)
	}
	if len(rec.Violation.Schedule) == 0 || len(rec.Violation.Decided) < 2 {
		t.Fatalf("violation witness not replayable: %+v", rec.Violation)
	}
	// …and a starved hunt is a failure.
	rec = RunCellRecord(Cell{Row: "violation-hunt", N: 3, K: 1, MaxDepth: 1})
	if rec.Status != StatusFail {
		t.Fatalf("starved hunt: status %s, want fail", rec.Status)
	}
	if !rec.Gates() {
		t.Error("failing record must gate")
	}
}

func TestExploreRowReportsThroughput(t *testing.T) {
	rec := RunCellRecord(Cell{Row: "explore", N: 3, K: 1, MaxConfigs: 2000})
	if rec.Status != StatusOK {
		t.Fatalf("explore status %s: %s", rec.Status, rec.Error)
	}
	if rec.States == 0 || rec.ConfigsPerSec <= 0 {
		t.Errorf("explore record missing throughput: states=%d rate=%f", rec.States, rec.ConfigsPerSec)
	}
	if len(rec.Decided) == 0 {
		t.Error("explore record missing decided values")
	}
}

func TestTheorem10RowCertifies(t *testing.T) {
	rec := RunCellRecord(Cell{Row: "theorem10", N: 5, K: 2})
	if rec.Status != StatusOK {
		t.Fatalf("theorem10 status %s: %s", rec.Status, rec.Error)
	}
	if rec.Certified < rec.Bound || rec.Bound != lowerbound.Theorem10Bound(5, 2) {
		t.Errorf("certified %d, bound %d", rec.Certified, rec.Bound)
	}
}

// --- LB modes ---

func TestLBModesResolve(t *testing.T) {
	for _, key := range []string{"figure1", "theorem10", "counterexample", "covering", "forbidden", "lemma16"} {
		mode, ok := LBModeByKey(key)
		if !ok {
			t.Fatalf("mode %s unregistered", key)
		}
		p, _, err := mode.Build(4, 2)
		if err != nil {
			t.Errorf("mode %s build: %v", key, err)
		}
		if p == nil {
			t.Errorf("mode %s built nil protocol", key)
		}
	}
	if _, ok := LBModeByKey("bogus"); ok {
		t.Error("bogus mode must not resolve")
	}
}

// addTestRow registers a scenario for tests and returns its key.
func addTestRow(spec RowSpec) string {
	rowRegistry[spec.Key] = spec
	return spec.Key
}

func undoTestRow(key string) {
	delete(rowRegistry, key)
}
