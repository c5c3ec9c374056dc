package sweep

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// A killed sweep leaves exactly one defect in -out: a torn final line.
// The resume reader drops it (the cell re-runs) and keeps everything
// before it.
func TestReadResultsResumeTornFinalLine(t *testing.T) {
	stream := `{"cell":"a","row":"explore","n":4,"k":2,"status":"ok","measured":-1,"certified":-1,"wall_ms":1}
{"cell":"b","row":"explore","n":5,"k":2,"status":"ok","measured":-1,"certified":-1,"wall_ms":1}
{"cell":"c","row":"explore","n":6,"k":`
	results, dropped, err := ReadResultsResume(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	if len(results) != 2 || results[0].Cell != "a" || results[1].Cell != "b" {
		t.Fatalf("results = %+v", results)
	}

	// A clean stream reports nothing dropped.
	clean := stream[:strings.LastIndex(stream, "\n")+1]
	results, dropped, err = ReadResultsResume(strings.NewReader(clean))
	if err != nil || dropped != 0 || len(results) != 2 {
		t.Fatalf("clean stream: results=%d dropped=%d err=%v", len(results), dropped, err)
	}
}

// An unparsable line that is NOT the final line is real corruption:
// silently skipping it would silently skip re-running its cell.
func TestReadResultsResumeRejectsMidStreamCorruption(t *testing.T) {
	stream := `{"cell":"a","row":"explore","n":4,"k":2,"status":"ok","measured":-1,"certified":-1,"wall_ms":1}
NOT JSON AT ALL
{"cell":"b","row":"explore","n":5,"k":2,"status":"ok","measured":-1,"certified":-1,"wall_ms":1}
`
	if _, _, err := ReadResultsResume(strings.NewReader(stream)); err == nil {
		t.Fatal("mid-stream corruption did not fail the resume read")
	}
	// The strict reader rejects even the torn tail — its contract is
	// unchanged.
	torn := `{"cell":"a","row":"explore","n":4,"k":2,"status":"ok","measured":-1,"certified":-1,"wall_ms":1}
{"cell":"b",`
	if _, err := ReadResults(strings.NewReader(torn)); err == nil {
		t.Fatal("strict reader accepted a torn line")
	}
}

// The mid-cell resume loop: a cell that times out keeps its checkpoint
// subdirectory (so a retry resumes partway), and the retry that reaches
// a verdict produces the same verdict as an uncheckpointed clean run —
// then cleans up.
func TestRunCheckpointDirResumesMidCell(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run exploration")
	}
	ckpt := t.TempDir()
	cell := Cell{Row: "explore", N: 5, K: 2, MaxConfigs: 200000}
	sub := CellCheckpointDir(ckpt, cell.ID())

	// Phase 1: the cell dies mid-exploration (timeout stands in for the
	// kill — both cancel between level barriers). The first snapshot is
	// written within milliseconds and the whole checkpointed run takes
	// about 0.2 s on two vCPUs, so 50 ms lands between them; at 300 ms a
	// quiet machine finished the cell first and the test skipped.
	interrupted := cell
	interrupted.Timeout = 50 * time.Millisecond
	recs, err := Run([]Cell{interrupted}, RunOptions{CheckpointDir: ckpt, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Status != StatusTimeout {
		t.Skipf("cell finished before the interrupt (status %q); machine too fast for this budget", recs[0].Status)
	}
	if _, err := os.Stat(filepath.Join(sub, "explore", "MANIFEST.json")); err != nil {
		t.Fatalf("interrupted cell left no snapshot: %v", err)
	}

	// Phase 2: the retry resumes from the snapshot and completes.
	recs, err = Run([]Cell{cell}, RunOptions{CheckpointDir: ckpt, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	resumed := recs[0]
	if resumed.Status != StatusOK {
		t.Fatalf("resumed cell: %+v", resumed)
	}

	// Identical verdict to a clean, uncheckpointed run.
	clean := RunCellRecord(cell)
	if resumed.Status != clean.Status || resumed.States != clean.States ||
		resumed.Complete != clean.Complete || resumed.Measured != clean.Measured {
		t.Fatalf("resumed verdict diverged:\n  resumed %+v\n  clean   %+v", resumed, clean)
	}

	// A verdicted cell's snapshots are disposable.
	if _, err := os.Stat(sub); !os.IsNotExist(err) {
		t.Fatalf("completed cell kept its checkpoint dir: %v", err)
	}
}

// Cells already verdicted in the skip set get their leftover snapshot
// directories removed (a crash between record write and cleanup leaves
// them), and remote execution never touches the checkpoint root.
func TestRunCheckpointDirCleanup(t *testing.T) {
	ckpt := t.TempDir()
	cell := Cell{Row: "explore", N: 3, K: 1, MaxConfigs: 2000}
	stale := CellCheckpointDir(ckpt, cell.ID())
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	prior := Result{Cell: cell.ID(), Row: cell.Row, N: cell.N, K: cell.K,
		Status: StatusOK, Measured: -1, Certified: -1}
	if _, err := Run([]Cell{cell}, RunOptions{
		CheckpointDir: ckpt,
		Skip:          map[string]Result{cell.ID(): prior},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("skip path left the stale checkpoint dir")
	}

	// With a RunCell hook (daemon mode) the checkpoint root is ignored.
	hookCkpt := t.TempDir()
	var sawDir string
	if _, err := Run([]Cell{cell}, RunOptions{
		CheckpointDir: hookCkpt,
		RunCell: func(c Cell) Result {
			sawDir = c.CheckpointDir
			return prior
		},
	}); err != nil {
		t.Fatal(err)
	}
	if sawDir != "" {
		t.Fatalf("daemon-mode cell was handed a local checkpoint dir %q", sawDir)
	}
	if entries, _ := os.ReadDir(hookCkpt); len(entries) != 0 {
		t.Fatalf("daemon mode wrote into the checkpoint root: %v", entries)
	}
}

// A distributed cell, like an async one, runs without its checkpoint
// directory: the mode table forbids checkpointing a distributed run,
// and a rerun from scratch reaches the same verdict.
func TestRunCheckpointDirSkipsDistributedCells(t *testing.T) {
	cell := Cell{Row: "explore", N: 3, K: 1, MaxConfigs: 2000, Engine: EngineSpec{Peers: 2}}
	recs, err := Run([]Cell{cell}, RunOptions{CheckpointDir: t.TempDir(), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if clean := RunCellRecord(cell); recs[0].Status != StatusOK || recs[0].States != clean.States {
		t.Fatalf("checkpointed distributed cell: %+v, clean run: %+v", recs[0], clean)
	}
}
