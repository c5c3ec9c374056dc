package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/harness"
	"repro/internal/serve"
	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")

// TestGolden pins the small grid's records, timing aside. At -par 1 and
// GOMAXPROCS=1 every cell runs its engine on one worker, the only setting
// at which a reduced cell's states_pruned is fixed; the records are sorted
// because they stream in completion order.
func TestGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var out strings.Builder
	if err := run([]string{"-grid", "small", "-par", "1", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	records := nonEmptyLines(out.String())
	slices.Sort(records)
	golden := filepath.Join("testdata", "golden", "grid-small.out")
	if err := harness.Golden(golden, strings.Join(records, "\n")+"\n", *update); err != nil {
		t.Error(err)
	}
}

// TestDefaultGridReproducesTable1 is the contract with cmd/table1: on the
// default grid (shrunk to n=4, k=2 with 2 schedules to keep the test
// fast) the sweep's stdout must be byte-for-byte the table1 output —
// header, table, nothing else.
func TestDefaultGridReproducesTable1(t *testing.T) {
	rows, err := sweep.Table1Rows(4, 2, harness.ValidateOptions{Schedules: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := "Table 1 (Ovens, PODC 2022) regenerated for n=4, k=2\n\n" + harness.RenderTable(rows)

	var out strings.Builder
	if err := run([]string{"-grid", "default", "-n", "4", "-k", "2", "-schedules", "2", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("sweep output diverged from table1:\n--- got ---\n%s\n--- want ---\n%s", out.String(), want)
	}
}

// TestResumeExecutesOnlyMissingCells: interrupt a grid by truncating its
// result file, re-run, and verify the file ends with exactly one record
// per cell and a third run appends nothing.
func TestResumeExecutesOnlyMissingCells(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "sweep.json")
	args := []string{"-grid", "small", "-out", outFile}
	var sink strings.Builder
	if err := run(args, &sink); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := nonEmptyLines(string(full))
	if len(lines) == 0 {
		t.Fatal("no records written")
	}

	// Truncate to a prefix — an interrupted run.
	keep := len(lines) / 2
	if err := os.WriteFile(outFile, []byte(strings.Join(lines[:keep], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sink.Reset()
	if err := run(args, &sink); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	got := nonEmptyLines(string(resumed))
	if len(got) != len(lines) {
		t.Fatalf("resumed file has %d records, want %d (only missing cells re-run)", len(got), len(lines))
	}
	records, err := sweep.ReadResults(strings.NewReader(string(resumed)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range records {
		seen[r.Cell]++
	}
	for cell, count := range seen {
		if count != 1 {
			t.Errorf("cell %s recorded %d times after resume", cell, count)
		}
	}

	// A third run with a complete file must execute nothing new.
	sink.Reset()
	if err := run(args, &sink); err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(nonEmptyLines(string(final))) != len(lines) {
		t.Errorf("fully-checkpointed re-run appended records")
	}
}

// TestJSONOutputIsParseable: -json streams records, not the table.
func TestJSONOutputIsParseable(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rows", "consensus-readable-b2,consensus-readable-bb", "-n", "4", "-k", "1", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	records, err := sweep.ReadResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("stdout is not JSONL: %v\n%s", err, out.String())
	}
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	if strings.Contains(out.String(), "Table 1") {
		t.Error("-json must suppress the human table")
	}
}

// TestGateFailsOnBadCell: a grid containing a failing cell must exit
// non-zero (the CI violation gate).
func TestGateFailsOnBadCell(t *testing.T) {
	var out strings.Builder
	// violation-hunt with a depth cap of 1 cannot find its witness → fail.
	err := run([]string{"-rows", "violation-hunt", "-n", "3", "-k", "1", "-depth", "1", "-json"}, &out)
	if err == nil {
		t.Fatal("failing cell must yield a non-nil error (exit 1)")
	}
}

func TestSpecFile(t *testing.T) {
	specFile := filepath.Join(t.TempDir(), "grid.json")
	spec := `{"name":"custom","rows":["explore"],"ns":[3],"ks":[1],"max_configs":1000}`
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-spec", specFile, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	records, err := sweep.ReadResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Grid != "custom" || records[0].States == 0 {
		t.Fatalf("unexpected records: %+v", records)
	}
}

func TestRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-grid", "bogus"}, &out); err == nil {
		t.Error("unknown grid must be rejected")
	}
	if err := run([]string{"-rows", "no-such-row"}, &out); err == nil {
		t.Error("unknown row must be rejected")
	}
	if err := run([]string{"-bogusflag"}, &out); err == nil {
		t.Error("unknown flag must be rejected")
	}
	if err := run([]string{"-store", "floppy"}, &out); err == nil {
		t.Error("unknown store must be rejected")
	}
	if err := run([]string{"-store", "spill", "-membudget", "lots"}, &out); err == nil {
		t.Error("bad -membudget must be rejected")
	}
	if err := run([]string{"-membudget", "1GB"}, &out); err == nil {
		t.Error("-membudget without -store spill must be rejected, not silently unenforced")
	}
	for _, args := range [][]string{
		{"-order", "async", "-store", "spill"},
	} {
		if err := run(args, &out); !errors.Is(err, check.ErrIncompatibleModes) {
			t.Errorf("%v: err = %v, want ErrIncompatibleModes", args, err)
		}
	}
}

// TestOrderOverrideKeepsIllegalSpecsLevelsync: -order async moves every
// engine spec of the small grid — the unreduced and the sym one, both
// legal under async — and leaves a spec async cannot run, one with peers,
// on its own order, so the grid still runs and gates clean. A
// -checkpointdir does not stop the async cells either: they run without
// snapshots.
func TestOrderOverrideKeepsIllegalSpecsLevelsync(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-grid", "small", "-rows", "explore-anon", "-order", "async", "-json",
		"-checkpointdir", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	orderOf := map[string]string{} // reduction -> order that ran
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var rec sweep.Result
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		orderOf[rec.Reduce] = rec.Order
	}
	want := map[string]string{"": check.OrderAsync, check.ReduceSym: check.OrderAsync}
	if !reflect.DeepEqual(orderOf, want) {
		t.Errorf("orders by reduction = %v, want %v", orderOf, want)
	}

	// A distributed spec is the other kind async cannot run: it stays on
	// levelsync over its peers, beside the in-process spec that moved.
	specFile := filepath.Join(t.TempDir(), "grid.json")
	spec := `{"name":"custom","rows":["explore"],"ns":[3],"ks":[1],"max_configs":1000,"engines":[{},{"peers":2}]}`
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-spec", specFile, "-order", "async", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	records, err := sweep.ReadResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	orderOfPeers := map[int]string{}
	for _, rec := range records {
		orderOfPeers[rec.Peers] = rec.Order
	}
	if want := map[int]string{0: check.OrderAsync, 2: check.OrderLevelSync}; !reflect.DeepEqual(orderOfPeers, want) {
		t.Errorf("orders by peer count = %v, want %v", orderOfPeers, want)
	}
}

// TestHelpListsModeConflicts: every row of check.ModeConflicts that an
// axis-override flag can trip appears in that flag's -help text.
func TestHelpListsModeConflicts(t *testing.T) {
	// -help goes to the flag set's default output, os.Stderr.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-help"}, io.Discard)
	os.Stderr = stderr
	w.Close()
	text, err := io.ReadAll(r)
	if err != nil || !errors.Is(runErr, flag.ErrHelp) {
		t.Fatalf("-help: run err %v, read err %v", runErr, err)
	}
	usage := map[string]string{} // flag name -> its help paragraph
	name := ""
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(rest, " ")
		}
		usage[name] += line + "\n"
	}
	flagOf := map[check.Mode]string{check.ModeAsync: "order", check.ModeReduce: "reduce", check.ModeSpill: "store"}
	for _, c := range check.ModeConflicts {
		for _, side := range [][2]check.Mode{{c.A, c.B}, {c.B, c.A}} {
			if name, ok := flagOf[side[0]]; ok && !strings.Contains(usage[name], side[1].String()) {
				t.Errorf("-%s help does not name its conflict with %s:\n%s", name, side[1], usage[name])
			}
		}
	}
}

// TestSpillStoreFlagEndToEnd drives the beyond-RAM path through the CLI:
// an exploration whose 20000-configuration visited set dwarfs an 8KB
// budget must finish clean, and its JSONL record must carry the spill
// statistics CI greps for.
func TestSpillStoreFlagEndToEnd(t *testing.T) {
	var out strings.Builder
	// -reduce none collapses the small grid's three-spec reduce axis
	// back to one cell (the override deduplicates identical specs).
	args := []string{"-grid", "small", "-rows", "explore", "-n", "4",
		"-store", "spill", "-membudget", "8KB", "-reduce", "none", "-json"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	records, err := sweep.ReadResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("stdout is not JSONL: %v\n%s", err, out.String())
	}
	if len(records) != 1 {
		t.Fatalf("got %d records, want 1: %s", len(records), out.String())
	}
	rec := records[0]
	if rec.Status != sweep.StatusOK {
		t.Fatalf("status %q: %s", rec.Status, rec.Error)
	}
	if rec.Store != "spill" || rec.BytesSpilled == 0 || rec.RunsWritten == 0 || rec.PeakResidentBytes == 0 {
		t.Errorf("record lacks spill stats: %+v", rec)
	}
	if rec.PrefilterHits == 0 {
		t.Errorf("forced-spill run reports no prefilter hits: %+v", rec)
	}
	if !strings.Contains(rec.Cell, "spill@8KB") {
		t.Errorf("cell ID %q does not carry the store axis", rec.Cell)
	}
}

// TestStoreMemOverrideRevertsSpillSpec: -store mem against a grid whose
// spec declares spill engines must drop the spec's now-meaningless
// budget instead of failing validation.
func TestStoreMemOverrideRevertsSpillSpec(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(spec, []byte(`{"rows":["consensus-readable-b2"],"ns":[4],"ks":[1],
		"engines":[{"store":"spill","mem_budget":"1MB"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-spec", spec, "-store", "mem", "-json"}, &out); err != nil {
		t.Fatalf("-store mem could not revert a spill spec: %v", err)
	}
	records, err := sweep.ReadResults(strings.NewReader(out.String()))
	if err != nil || len(records) != 1 {
		t.Fatalf("records: %v, %v", records, err)
	}
	if strings.Contains(records[0].Cell, "spill") {
		t.Errorf("cell %q still on the spill store", records[0].Cell)
	}
}

// TestStoreOverrideDedupesCollapsedEngines: when -store mem makes a
// mem-vs-spill comparison grid's engine specs identical, the duplicates
// are dropped rather than running every cell twice under one ID.
func TestStoreOverrideDedupesCollapsedEngines(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(spec, []byte(`{"rows":["consensus-readable-b2"],"ns":[4],"ks":[1],
		"engines":[{"store":"spill","mem_budget":"1MB"},{}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-spec", spec, "-store", "mem", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	records, err := sweep.ReadResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("got %d records, want 1 (collapsed specs deduped): %s", len(records), out.String())
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out
}

// TestDaemonFlagRoutesCellsThroughService: with -daemon every cell is
// executed by a live mcheckd service instead of in-process, and the
// records that come back gate the exit status exactly as local ones do.
func TestDaemonFlagRoutesCellsThroughService(t *testing.T) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out strings.Builder
	args := []string{"-rows", "consensus-readable-b2,consensus-readable-bb",
		"-n", "4", "-k", "1", "-json", "-daemon", ts.URL}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	records, err := sweep.ReadResults(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("daemon-mode stdout is not JSONL: %v\n%s", err, out.String())
	}
	if len(records) != 2 {
		t.Fatalf("got %d records, want 2", len(records))
	}
	for _, r := range records {
		if r.Status != sweep.StatusOK {
			t.Errorf("cell %s: status %s (%s), want ok", r.Cell, r.Status, r.Error)
		}
	}

	// The work must actually have happened on the daemon.
	resp, err := http.Get(ts.URL + "/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Checks int64 `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Checks != 2 {
		t.Fatalf("daemon executed %d checks, want 2", stats.Checks)
	}
}

// A sweep pointed at a daemon that is not there must fail its cells
// (transport errors become error records), not pass silently.
func TestDaemonFlagUnreachable(t *testing.T) {
	var out strings.Builder
	args := []string{"-rows", "consensus-readable-b2", "-n", "4", "-k", "1",
		"-json", "-daemon", "http://127.0.0.1:1"}
	err := run(args, &out)
	if err == nil {
		t.Fatal("sweep against unreachable daemon exited clean")
	}
	records, rerr := sweep.ReadResults(strings.NewReader(out.String()))
	if rerr != nil || len(records) != 1 {
		t.Fatalf("records=%v err=%v", records, rerr)
	}
	if records[0].Status != sweep.StatusError {
		t.Fatalf("status = %s, want error", records[0].Status)
	}
}
