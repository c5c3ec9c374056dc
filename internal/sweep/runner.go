package sweep

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
)

// Cell statuses in Result records.
const (
	// StatusOK: the scenario ran and met its success criterion.
	StatusOK = "ok"
	// StatusFail: the scenario ran but validation or certification fell
	// short (a FAILED table row, a certificate below the bound, an
	// expected violation not found).
	StatusFail = "fail"
	// StatusViolation: an agreement violation was witnessed by a scenario
	// that does not expect one.
	StatusViolation = "violation"
	// StatusTimeout: the cell exceeded its wall-time budget.
	StatusTimeout = "timeout"
	// StatusError: the scenario aborted with an error.
	StatusError = "error"
)

// Violation is the JSONL form of a replayable violation witness.
type Violation struct {
	// Schedule is the pid sequence from the initial configuration.
	Schedule []int `json:"schedule"`
	// Decided is the decided-value set at the end of the schedule.
	Decided []int `json:"decided"`
}

// Result is one JSON Lines record: everything known about one executed
// cell. Measured and Certified use -1 for "not applicable".
type Result struct {
	Grid string `json:"grid,omitempty"`
	Cell string `json:"cell"`
	Row  string `json:"row"`
	N    int    `json:"n"`
	K    int    `json:"k"`
	// Inputs echoes the cell's explicit input assignment (empty when the
	// scenario ran its default assignment).
	Inputs  []int  `json:"inputs,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Keys    string `json:"keys,omitempty"`

	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	// Store and the spill counters record the state-store backend that
	// ran the cell's exploration and its disk activity — the audit trail
	// for beyond-RAM cells (set by scenarios that run the explorer).
	Store             string `json:"store,omitempty"`
	BytesSpilled      int64  `json:"bytes_spilled,omitempty"`
	RunsWritten       int    `json:"runs_written,omitempty"`
	RunsMerged        int    `json:"runs_merged,omitempty"`
	PeakResidentBytes int64  `json:"peak_resident_bytes,omitempty"`
	PrefilterHits     int64  `json:"prefilter_hits,omitempty"`

	// Reduce and the reduction counters record the state-space reduction
	// that ran the cell's exploration. They are attached on every
	// explorer record — violation rows included — so reduced runs stay
	// auditable whatever the verdict.
	Reduce       string `json:"reduce,omitempty"`
	StatesPruned int64  `json:"states_pruned,omitempty"`

	// Order and the async counters record the exploration order that ran
	// the cell. Order is set on every explorer record ("levelsync" or
	// "async"), violation rows included; the steal and quiescence-scan
	// counters are only nonzero for async-order runs.
	Order           string `json:"order,omitempty"`
	Steals          int64  `json:"steals,omitempty"`
	QuiescenceScans int64  `json:"quiescence_scans,omitempty"`

	// Peers and the net counters record distributed cells' wire activity
	// (zero for single-process cells). Like the other explorer blocks
	// they ride on every explorer record, violation rows included.
	Peers        int   `json:"peers,omitempty"`
	NetBytesSent int64 `json:"net_bytes_sent,omitempty"`
	NetBatches   int64 `json:"net_batches,omitempty"`

	// Fail-over accounting: slots permanently dropped, partitions moved
	// across re-seed rounds, and extra dial attempts during recovery.
	PeersLost          int64 `json:"peers_lost,omitempty"`
	ReseededPartitions int64 `json:"reseeded_partitions,omitempty"`
	PeerRetries        int64 `json:"peer_retries,omitempty"`

	States        int        `json:"states,omitempty"`
	Measured      int        `json:"measured"`
	Certified     int        `json:"certified"`
	Bound         int        `json:"bound,omitempty"`
	Decided       []int      `json:"decided,omitempty"`
	Complete      bool       `json:"complete,omitempty"`
	Violation     *Violation `json:"violation,omitempty"`
	WallMS        float64    `json:"wall_ms"`
	ConfigsPerSec float64    `json:"configs_per_sec,omitempty"`
	// AllocsPerState is heap allocations per explored configuration
	// (runtime mallocs delta over the cell / States). With concurrent
	// cells the delta includes neighbors' allocations, so treat it as an
	// upper bound; the repository benchmark (benchmark/) measures the
	// isolated number, check.allocs_per_state.
	AllocsPerState float64      `json:"allocs_per_state,omitempty"`
	Table          *harness.Row `json:"table,omitempty"`
}

// Gates reports whether the record should fail a gating consumer (CI):
// anything but a clean "ok" does.
func (r Result) Gates() bool { return r.Status != StatusOK }

// RunOptions configures a grid run.
type RunOptions struct {
	// Parallelism bounds concurrently executing cells
	// (0 = runtime.GOMAXPROCS(0)).
	Parallelism int
	// Out, when non-nil, receives one JSON line per freshly executed cell
	// as it completes (checkpointed cells are not re-emitted).
	Out io.Writer
	// Skip maps cell IDs to prior results; cells found here are not
	// re-executed and their prior record is carried into the result set.
	Skip map[string]Result
	// OnResult, when non-nil, observes every record as its cell finalizes
	// — checkpointed cells up front, fresh cells as they complete, so a
	// long grid reports live progress. Calls are serialized but their
	// order follows completion, not cell order.
	OnResult func(r Result, cached bool)
	// RunCell, when non-nil, replaces RunCellRecord as the per-cell
	// executor — the hook cmd/sweep's -daemon mode uses to run cells
	// through a checker daemon instead of in-process.
	RunCell func(cell Cell) Result
	// CheckpointDir, when set, gives each in-process cell a private
	// subdirectory (a hash of its cell ID) for engine level-barrier
	// snapshots. A sweep killed mid-cell resumes that cell from its last
	// snapshot on the next run; a cell that reaches a verdict has its
	// subdirectory removed, while timeout and error cells keep theirs so
	// a retry (say, with a larger timeout) picks up mid-exploration.
	// Ignored when RunCell is set — a remote daemon checkpoints (or not)
	// on its own disk.
	CheckpointDir string
}

// CellCheckpointDir is the per-cell snapshot subdirectory under a
// sweep checkpoint root: a hash of the cell ID, because IDs contain
// characters ('/', '=') that are path syntax.
func CellCheckpointDir(root, cellID string) string {
	sum := sha256.Sum256([]byte(cellID))
	return filepath.Join(root, hex.EncodeToString(sum[:8]))
}

// verdictStatus reports whether a record carries a completed verdict —
// the statuses that make the cell's checkpoint directory disposable.
func verdictStatus(status string) bool {
	switch status {
	case StatusOK, StatusFail, StatusViolation:
		return true
	}
	return false
}

// Run executes the cells with bounded parallelism, honoring per-cell
// timeouts and the checkpoint skip set, and returns one record per cell
// in the cells' order. Scenario-level problems are captured in record
// statuses; the returned error reports only infrastructure failures
// (an unknown row key or a JSONL write error).
func Run(cells []Cell, opts RunOptions) ([]Result, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// Validate every cell before spawning anything: a mid-loop error
	// return must not leave scenario goroutines running (and writing to
	// opts.Out) behind the caller's back.
	for i, cell := range cells {
		if _, ok := RowByKey(cell.Row); !ok {
			return nil, fmt.Errorf("sweep: unknown row %q in cell %d", cell.Row, i)
		}
	}
	runCell := opts.RunCell
	ckptRoot := opts.CheckpointDir
	if runCell == nil {
		runCell = RunCellRecord
	} else {
		ckptRoot = "" // remote cells checkpoint on the daemon's disk
	}

	results := make([]Result, len(cells))
	var (
		wg     sync.WaitGroup
		sem    = make(chan struct{}, par)
		mu     sync.Mutex // guards Out writes, outErr and OnResult calls
		outErr error
	)
	for i, cell := range cells {
		if prior, ok := opts.Skip[cell.ID()]; ok {
			results[i] = prior
			if ckptRoot != "" && verdictStatus(prior.Status) {
				// A verdicted cell's snapshots are stale (a crash between
				// the record write and the cleanup can leave them behind).
				os.RemoveAll(CellCheckpointDir(ckptRoot, cell.ID()))
			}
			if opts.OnResult != nil {
				mu.Lock()
				opts.OnResult(prior, true)
				mu.Unlock()
			}
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, cell Cell) {
			defer wg.Done()
			defer func() { <-sem }()
			if ckptRoot != "" {
				cell.CheckpointDir = CellCheckpointDir(ckptRoot, cell.ID())
			}
			rec := runCell(cell)
			if cell.CheckpointDir != "" && verdictStatus(rec.Status) {
				os.RemoveAll(cell.CheckpointDir)
			}
			mu.Lock()
			results[i] = rec
			if opts.Out != nil && outErr == nil {
				if err := WriteResult(opts.Out, rec); err != nil {
					outErr = err
				}
			}
			if opts.OnResult != nil {
				opts.OnResult(rec, false)
			}
			mu.Unlock()
		}(i, cell)
	}
	wg.Wait()
	if outErr != nil {
		return results, fmt.Errorf("sweep: write results: %w", outErr)
	}
	return results, nil
}

// RunCell resolves and executes one cell's scenario directly, with no
// timeout or recording — the entry point the benchmarks drive.
func RunCell(cell Cell) (*Outcome, error) {
	spec, ok := RowByKey(cell.Row)
	if !ok {
		return nil, fmt.Errorf("sweep: unknown row %q", cell.Row)
	}
	if err := rejectStrayInputs(spec, cell); err != nil {
		return nil, err
	}
	return spec.Run(cell)
}

// cellCancelGrace is how long an expired cell's scenario goroutine gets
// to unwind through the in-process cancellation path before the runner
// abandons it. Engine-backed rows observe cell.Ctx at node granularity
// and return within milliseconds; the grace only matters for rows that
// never look at the context.
const cellCancelGrace = 2 * time.Second

// RunCellRecord executes one cell under its timeout and packages the
// outcome as a Result record.
func RunCellRecord(cell Cell) Result {
	return RunCellRecordCtx(context.Background(), cell)
}

// RunCellRecordCtx is RunCellRecord under a caller-supplied context: the
// context, with the cell timeout layered on when set, is threaded into
// the cell (overwriting any Cell.Ctx), so engine-backed scenarios cancel
// in-process — the run's goroutines unwind and release their memory
// instead of burning CPU behind an abandoned channel, which is what lets
// the serving daemon time out one check without poisoning the rest.
// Once the context fires before the scenario returns, the record is the
// expiry verdict (StatusTimeout for the cell's own deadline, StatusError
// "cancelled" for the caller's) regardless of whether the goroutine
// manages to finish inside the grace window; scenarios that ignore the
// context entirely are abandoned after the grace, preserving the old
// runner's survival property for large grids.
func RunCellRecordCtx(ctx context.Context, cell Cell) Result {
	// Reduce and Order are populated from the Outcome below, not from the
	// cell spec: certificate rows deliberately drop both axes (witness
	// searches run unreduced and level-synchronized), and their records
	// must not claim otherwise.
	rec := Result{
		Grid: cell.Grid, Cell: cell.ID(), Row: cell.Row, N: cell.N, K: cell.K,
		Inputs:  cell.Inputs,
		Workers: cell.Engine.Workers, Keys: cell.Engine.Keys,
		Measured: -1, Certified: -1,
	}
	spec, ok := RowByKey(cell.Row)
	if !ok {
		rec.Status = StatusError
		rec.Error = fmt.Sprintf("unknown row %q", cell.Row)
		return rec
	}
	if err := rejectStrayInputs(spec, cell); err != nil {
		rec.Status = StatusError
		rec.Error = err.Error()
		return rec
	}
	if cell.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cell.Timeout)
		defer cancel()
	}
	cell.Ctx = ctx

	type done struct {
		out *Outcome
		err error
	}
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	var d done
	if ctx.Done() == nil {
		// Uncancellable context, no timeout: run inline as the original
		// runner did.
		d.out, d.err = spec.Run(cell)
	} else {
		ch := make(chan done, 1)
		go func() {
			out, err := spec.Run(cell)
			ch <- done{out, err}
		}()
		select {
		case d = <-ch:
		case <-ctx.Done():
			// Expired. Wait briefly for the in-process unwind (so the
			// goroutine and its memory actually go away), then abandon.
			select {
			case <-ch:
			case <-time.After(cellCancelGrace):
			}
			rec.Status, rec.Error = expiryVerdict(ctx.Err(), cell)
			rec.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
			return rec
		}
	}
	elapsed := time.Since(start)
	rec.WallMS = float64(elapsed) / float64(time.Millisecond)

	if d.err != nil {
		// A scenario error wrapping the context error is the same expiry,
		// observed from the other side of the race.
		if errors.Is(d.err, context.Canceled) || errors.Is(d.err, context.DeadlineExceeded) {
			rec.Status, rec.Error = expiryVerdict(d.err, cell)
			return rec
		}
		rec.Status = StatusError
		rec.Error = d.err.Error()
		return rec
	}
	out := d.out
	if out.Store != nil {
		rec.Store = out.Store.Kind
		rec.BytesSpilled = out.Store.BytesSpilled
		rec.RunsWritten = out.Store.RunsWritten
		rec.RunsMerged = out.Store.RunsMerged
		rec.PeakResidentBytes = out.Store.PeakResidentBytes
		rec.PrefilterHits = out.Store.PrefilterHits
	}
	if out.Reduction != nil {
		rec.Reduce = out.Reduction.Reduce
		rec.StatesPruned = out.Reduction.StatesPruned
	}
	if out.Async != nil {
		rec.Order = out.Async.Order
		rec.Steals = out.Async.Steals
		rec.QuiescenceScans = out.Async.QuiescenceScans
	}
	if out.Net != nil {
		rec.Peers = out.Net.Peers
		rec.NetBytesSent = out.Net.BytesSent
		rec.NetBatches = out.Net.BatchesSent
		rec.PeersLost = out.Net.PeersLost
		rec.ReseededPartitions = out.Net.ReseededPartitions
		rec.PeerRetries = out.Net.Retries
	}
	rec.States = out.States
	rec.Measured = out.Measured
	rec.Certified = out.Certified
	rec.Bound = out.Bound
	rec.Decided = out.Decided
	rec.Complete = out.Complete
	rec.Table = out.Table
	if out.Violation != nil {
		rec.Violation = &Violation{Schedule: out.Violation.Schedule, Decided: out.Violation.Decided}
	}
	if out.States > 0 && elapsed > 0 {
		rec.ConfigsPerSec = float64(out.States) / elapsed.Seconds()
	}
	if out.States > 0 {
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		rec.AllocsPerState = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(out.States)
	}
	rec.Status = cellStatus(spec, out)
	return rec
}

// expiryVerdict maps a fired context to a record status: the cell's own
// deadline is the classic timeout; anything else (the daemon draining, a
// client hanging up) is an externally cancelled run.
func expiryVerdict(err error, cell Cell) (status, detail string) {
	if errors.Is(err, context.DeadlineExceeded) && cell.Timeout > 0 {
		return StatusTimeout, fmt.Sprintf("exceeded %v", cell.Timeout)
	}
	return StatusError, fmt.Sprintf("cancelled: %v", err)
}

// cellStatus derives the record status from a completed outcome.
func cellStatus(spec RowSpec, out *Outcome) string {
	if spec.ExpectViolation {
		if out.Violation != nil || out.Violated {
			return StatusOK
		}
		return StatusFail
	}
	if out.Violation != nil || out.Violated {
		return StatusViolation
	}
	if out.Failed != "" {
		return StatusFail
	}
	return StatusOK
}

// WriteResult encodes one record as a JSON line — the single encoding
// used for -out files and -json streams.
func WriteResult(w io.Writer, rec Result) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadResults parses a JSON Lines result stream, skipping blank lines.
func ReadResults(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec Result
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("sweep: results line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: read results: %w", err)
	}
	return out, nil
}

// ReadResultsResume parses a JSON Lines result stream for checkpoint
// resume, tolerating the one defect a killed writer can leave: a torn
// final line. The torn line is dropped (its cell simply re-runs) and
// counted in dropped; an unparsable line anywhere BUT the end is real
// corruption and still fails, because silently skipping it would
// silently skip re-running its cell.
func ReadResultsResume(r io.Reader) (results []Result, dropped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	badLine := 0 // most recent unparsable line, pending "was it last?"
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if badLine != 0 {
			// Another record follows the unparsable line: mid-stream
			// corruption, not a torn tail.
			return nil, 0, fmt.Errorf("sweep: results line %d corrupt mid-stream", badLine)
		}
		var rec Result
		if json.Unmarshal([]byte(text), &rec) != nil {
			badLine = line
			continue
		}
		results = append(results, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("sweep: read results: %w", err)
	}
	if badLine != 0 {
		dropped = 1
	}
	return results, dropped, nil
}

// Checkpoint indexes prior results by cell ID (last record wins), the
// skip set for a resumed run.
func Checkpoint(results []Result) map[string]Result {
	idx := make(map[string]Result, len(results))
	for _, r := range results {
		idx[r.Cell] = r
	}
	return idx
}

// RenderResults renders the human tables from a result set: one Table 1
// block per (n, k) group in first-appearance order, each byte-for-byte in
// cmd/table1's format. Records without a table payload (exploration
// scenarios, errors, timeouts) are summarized in a trailing section, one
// line each; a result set that is all table rows renders tables only.
func RenderResults(results []Result) string {
	type group struct{ n, k int }
	var (
		order  []group
		tables = map[group][]harness.Row{}
		extras []string
	)
	for _, r := range results {
		if r.Table != nil {
			g := group{r.N, r.K}
			if _, ok := tables[g]; !ok {
				order = append(order, g)
			}
			tables[g] = append(tables[g], *r.Table)
			continue
		}
		extras = append(extras, fmt.Sprintf("%-40s %-9s states=%d wall=%.0fms%s",
			r.Cell, r.Status, r.States, r.WallMS, extraDetail(r)))
	}

	var b strings.Builder
	for i, g := range order {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "Table 1 (Ovens, PODC 2022) regenerated for n=%d, k=%d\n\n", g.n, g.k)
		b.WriteString(harness.RenderTable(tables[g]))
	}
	if len(extras) > 0 {
		if len(order) > 0 {
			b.WriteString("\n")
		}
		b.WriteString("Other cells:\n")
		for _, line := range extras {
			b.WriteString("  " + line + "\n")
		}
	}
	return b.String()
}

func extraDetail(r Result) string {
	switch {
	case r.Error != "":
		return " " + r.Error
	case r.Violation != nil:
		return fmt.Sprintf(" violation schedule len=%d decided=%v", len(r.Violation.Schedule), r.Violation.Decided)
	case r.Certified >= 0 && r.Bound > 0:
		return fmt.Sprintf(" certified=%d bound=%d", r.Certified, r.Bound)
	}
	return ""
}
