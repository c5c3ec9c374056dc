// Command sweep runs a declarative experiment matrix — scenario rows ×
// n × k × engine options — concurrently, streams one JSON Lines record
// per cell, and renders the human Table 1. On the default grid its stdout
// reproduces cmd/table1's output byte for byte.
//
// Usage:
//
//	sweep [-grid default|small|engine] [-spec grid.json]
//	      [-n 8] [-k 2] [-rows a,b,c] [-schedules N] [-seed S]
//	      [-max N] [-depth N] [-store mem|spill] [-membudget 64MB]
//	      [-reduce none|sym] [-order levelsync|async]
//	      [-par N] [-timeout SECONDS] [-daemon URL]
//	      [-out sweep.json] [-checkpointdir DIR] [-json] [-progress]
//
// -store/-membudget select the frontier engine's state store for every
// cell: "spill" bounds resident store memory by the budget, spilling
// visited fingerprints to sorted runs and frontier segments to disk, and
// the cell's JSONL record carries the spill statistics (bytes_spilled,
// runs_written, runs_merged, peak_resident_bytes, prefilter_hits).
// Results are identical across stores. -reduce selects the state-space
// reduction for the exploration rows (records carry reduce and
// states_pruned; "sym+sleep" is a deprecated synonym of
// "sym"); certificate searches always
// run unreduced, and reduced exploration legitimately visits fewer
// states. -order selects the exploration order for the exploration rows
// (records carry order, steals, quiescence_scans); "async" replaces the
// BFS level barrier with work-stealing deques — same visited set and
// verdicts — while certificate searches always run level-synchronized
// (witness extraction needs provenance chains async cannot maintain), and
// so does any engine spec the override would make illegal (async runs
// unreduced or under "sym", over the in-memory store, on fingerprint
// keys): the grid keeps running, that spec on its own order.
//
// -daemon routes every cell to a running mcheckd instance instead of
// checking in-process: the daemon applies its own admission control and
// answers orbit-equivalent duplicates from its result cache, and the
// records that come back are the same JSONL schema, so -out checkpoints
// are interchangeable between the two modes.
//
// -out appends JSONL records to the file and makes the run resumable:
// cells whose IDs already appear in the file are skipped, so an
// interrupted grid picks up where it left off. A torn final line (the
// one defect a killed sweep leaves in -out) is detected, dropped and
// repaired on resume; that cell simply re-runs. -checkpointdir goes
// further: each in-process cell snapshots its exploration at level
// barriers under a private subdirectory, so a sweep killed mid-cell
// resumes that cell from its last snapshot instead of restarting it
// (completed cells' snapshots are cleaned up; timeout cells keep theirs
// so a retry with a larger budget picks up partway). -json streams the
// records to stdout instead of the table. -progress reports per-cell
// completions to stderr, keeping stdout parseable.
//
// -cpuprofile/-memprofile capture pprof profiles of the grid run.
//
// Exit status: 0 when every cell is ok, 1 when any cell reports a
// violation, failure, timeout or error (the CI gate), 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/harness"
	"repro/internal/prof"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// errCells reports that some cell did not come back clean.
var errCells = errors.New("sweep: some cells did not pass")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errCells):
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	gridName := fs.String("grid", "default", "built-in grid: default|small|engine")
	specFile := fs.String("spec", "", "JSON grid spec file (overrides -grid)")
	nFlag := fs.String("n", "", "comma-separated process counts (override the grid's axis)")
	kFlag := fs.String("k", "", "comma-separated agreement parameters (override the grid's axis)")
	rowsFlag := fs.String("rows", "", "comma-separated row keys (override the grid's rows)")
	schedules := fs.Int("schedules", 0, "adversarial schedules per validation (0 = grid/harness default)")
	seed := fs.Int64("seed", 0, "schedule seed (0 = grid default)")
	maxConfigs := fs.Int("max", 0, "configuration budget override")
	maxDepth := fs.Int("depth", 0, "depth cap override")
	storeFlags := harness.RegisterStoreFlags(fs)
	// The axis overrides carry the help of the engine flags they stand in
	// for, conflict lists (generated from check.ModeConflicts) included.
	engHelp := flag.NewFlagSet("", flag.ContinueOnError)
	harness.RegisterEngineFlags(engHelp, false)
	reduceFlag := fs.String("reduce", "", "override the grid's reduction axis (exploration rows only; certificate searches always run unreduced) — "+engHelp.Lookup("reduce").Usage)
	orderFlag := fs.String("order", "", "override the grid's exploration-order axis (exploration rows only; certificate searches and engine specs it conflicts with keep theirs) — "+engHelp.Lookup("order").Usage)
	par := fs.Int("par", 0, "concurrently executing cells (0 = all cores)")
	timeout := fs.Int("timeout", -1, "per-cell wall-time budget in seconds (-1 = grid default, 0 = none)")
	outFile := fs.String("out", "", "JSONL results file; existing cells are skipped (resume)")
	ckptDir := fs.String("checkpointdir", "", "directory for per-cell engine snapshots: a sweep killed mid-cell resumes that cell from its last level barrier instead of restarting it (in-process exploration rows only)")
	jsonOut := fs.Bool("json", false, "stream JSONL records to stdout instead of the table")
	progress := fs.Bool("progress", false, "report per-cell completions to stderr")
	daemonURL := fs.String("daemon", "", "run cells through an mcheckd instance at this base URL (e.g. http://127.0.0.1:7077) instead of in-process; symmetric duplicates hit its result cache")
	profFlags := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "sweep:", perr)
		}
	}()

	grid, err := loadGrid(*specFile, *gridName)
	if err != nil {
		return err
	}
	if *nFlag != "" {
		if grid.Ns, err = parseInts(*nFlag); err != nil {
			return fmt.Errorf("-n: %w", err)
		}
	}
	if *kFlag != "" {
		if grid.Ks, err = parseInts(*kFlag); err != nil {
			return fmt.Errorf("-k: %w", err)
		}
	}
	if *rowsFlag != "" {
		grid.Rows = strings.Split(*rowsFlag, ",")
	}
	if *schedules > 0 {
		grid.Schedules = *schedules
	}
	if *seed != 0 {
		grid.Seed = *seed
	}
	if *maxConfigs > 0 {
		grid.MaxConfigs = *maxConfigs
	}
	if *maxDepth > 0 {
		grid.MaxDepth = *maxDepth
	}
	if *timeout >= 0 {
		grid.TimeoutSec = *timeout
	}
	// -store/-membudget/-reduce/-order override their axes on every
	// engine spec in the grid (adding a default spec when the grid
	// declares none), so any grid can be re-run beyond-RAM, reduced or
	// barrier-free without editing its spec file.
	if storeFlags.Store() != "" || storeFlags.MemBudgetText() != "" || *reduceFlag != "" || *orderFlag != "" {
		if _, err := storeFlags.MemBudget(); err != nil {
			return err
		}
		// Flags that conflict with each other are a usage error; an
		// override that conflicts with what a spec says itself is not.
		if err := (sweep.EngineSpec{Store: storeFlags.Store(), Reduce: *reduceFlag, Order: *orderFlag}).Validate(); err != nil {
			return err
		}
		if len(grid.Engines) == 0 {
			grid.Engines = []sweep.EngineSpec{{}}
		}
		for i := range grid.Engines {
			if *reduceFlag != "" {
				grid.Engines[i].Reduce = *reduceFlag
			}
			if storeFlags.Store() != "" {
				grid.Engines[i].Store = storeFlags.Store()
				if storeFlags.Store() != "spill" && storeFlags.MemBudgetText() == "" {
					// Reverting a spill spec to mem must also drop the
					// spec's budget, or validation would reject the
					// now-meaningless leftover.
					grid.Engines[i].MemBudget = ""
				}
			}
			if storeFlags.MemBudgetText() != "" {
				grid.Engines[i].MemBudget = storeFlags.MemBudgetText()
			}
			if *orderFlag != "" {
				// Last, against the spec as overridden so far: the order
				// axis stays put on a spec the override would make illegal,
				// the way certificate rows drop it.
				e := grid.Engines[i]
				e.Order = *orderFlag
				if !errors.Is(e.Validate(), check.ErrIncompatibleModes) {
					grid.Engines[i] = e
				}
			}
		}
		// The override can make specs that differed only on the store
		// axis identical; drop the duplicates so no cell runs twice
		// under one checkpoint ID.
		var unique []sweep.EngineSpec
		for _, e := range grid.Engines {
			dup := false
			for _, u := range unique {
				if u == e {
					dup = true
					break
				}
			}
			if !dup {
				unique = append(unique, e)
			}
		}
		grid.Engines = unique
	}

	cells, err := grid.Cells()
	if err != nil {
		return err
	}

	opts := sweep.RunOptions{Parallelism: *par, CheckpointDir: *ckptDir}
	if *daemonURL != "" {
		// Cell IDs (and therefore checkpoint skip sets) are identical in
		// both modes, so a sweep can move between in-process and daemon
		// execution across resumes of the same -out file.
		// The retrying client rides out daemon restarts and transient
		// saturation (503 + Retry-After) instead of recording a stripe of
		// spurious error cells.
		opts.RunCell = serve.NewRetryingClient(*daemonURL).RunCell
	}

	// Checkpoint resume: prior records in -out become the skip set, and
	// fresh records are appended to the same file.
	var outF *os.File
	if *outFile != "" {
		prior, err := readCheckpoint(*outFile)
		if err != nil {
			return err
		}
		opts.Skip = prior
		outF, err = os.OpenFile(*outFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer outF.Close()
		opts.Out = outF
	}
	if *jsonOut && opts.Out == nil {
		opts.Out = stdout
	}

	if *progress {
		done := 0
		opts.OnResult = func(r sweep.Result, cached bool) {
			done++
			note := ""
			if cached {
				note = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "cell %d/%d %-40s %s %.0fms%s\n",
				done, len(cells), r.Cell, r.Status, r.WallMS, note)
		}
	}

	results, err := sweep.Run(cells, opts)
	if err != nil {
		return err
	}
	if *jsonOut && *outFile != "" {
		// Records went to the file; mirror the full set (including
		// checkpointed cells) to stdout for the pipe consumer.
		for _, r := range results {
			if err := sweep.WriteResult(stdout, r); err != nil {
				return err
			}
		}
	}
	if !*jsonOut {
		fmt.Fprint(stdout, sweep.RenderResults(results))
	}

	bad := 0
	for _, r := range results {
		if r.Gates() {
			bad++
			fmt.Fprintf(os.Stderr, "sweep: cell %s: %s%s\n", r.Cell, r.Status, errDetail(r))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%w: %d of %d cells", errCells, bad, len(results))
	}
	return nil
}

func loadGrid(specFile, gridName string) (sweep.Grid, error) {
	if specFile == "" {
		return sweep.NamedGrid(gridName)
	}
	data, err := os.ReadFile(specFile)
	if err != nil {
		return sweep.Grid{}, err
	}
	return sweep.ParseGrid(data)
}

// readCheckpoint loads -out's prior records as the skip set. A torn
// final line — the defect a killed sweep leaves — is dropped (its cell
// re-runs) and the file is rewritten without it, because appending
// fresh records after a torn line would corrupt them too.
func readCheckpoint(path string) (map[string]sweep.Result, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	prior, dropped, err := sweep.ReadResultsResume(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %s: dropped a torn final line (its cell will re-run)\n", path)
		tmp := path + ".tmp"
		w, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		for _, r := range prior {
			if err := sweep.WriteResult(w, r); err != nil {
				w.Close()
				os.Remove(tmp)
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			os.Remove(tmp)
			return nil, err
		}
		if err := os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
			return nil, err
		}
	}
	return sweep.Checkpoint(prior), nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func errDetail(r sweep.Result) string {
	if r.Error != "" {
		return ": " + r.Error
	}
	return ""
}
