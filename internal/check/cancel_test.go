package check

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// The in-process cancellation contract (EngineOptions.Ctx): a cancelled
// run must return promptly with the context error — not run to its
// configuration budget — and must leave no engine goroutines behind.
// This is what the serving daemon's per-cell timeouts rely on: before
// Ctx existed, a hung cell could only be killed by process exit.

// cancelInstance returns an Algorithm 1 instance whose reachable space
// vastly exceeds what a few milliseconds can explore (lap counters grow
// without bound), so a run that ignores cancellation is caught by the
// wall-time assertion rather than finishing early by accident.
func cancelInstance(t *testing.T) (model.Protocol, *model.Config, []int) {
	t.Helper()
	p, err := core.New(core.Params{N: 6, K: 2, M: 3})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]int, 6)
	for i := range inputs {
		inputs[i] = i % 3
	}
	c, err := model.NewConfig(p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	pids := make([]int, 6)
	for i := range pids {
		pids[i] = i
	}
	return p, c, pids
}

// waitNoGoroutineLeak polls until the goroutine count returns to (about)
// its pre-run level; a cancelled run that strands workers, owners or the
// ctx watcher fails here with a full stack dump.
func waitNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancelled run: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func testCancelPromptly(t *testing.T, order string) {
	p, c, pids := cancelInstance(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ExploreOpts(p, c, pids, 2, ExploreOptions{
		Limits: ExploreLimits{MaxConfigs: 5_000_000},
		Engine: EngineOptions{Ctx: ctx, Workers: 4, Order: order},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled %s run: err = %v, want context.Canceled", order, err)
	}
	// 5M configurations take many seconds; a cancelled run must come back
	// as soon as the in-flight nodes drain. The bound is generous for
	// race-detector CI, yet far below the full run's wall time.
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled %s run returned after %v, want prompt return", order, elapsed)
	}
	waitNoGoroutineLeak(t, before)
}

func TestFrontierCancelLevelsync(t *testing.T) { testCancelPromptly(t, OrderLevelSync) }
func TestFrontierCancelAsync(t *testing.T)     { testCancelPromptly(t, OrderAsync) }

// A context that is already done must abort before any exploration.
func TestFrontierCancelBeforeStart(t *testing.T) {
	p, c, pids := cancelInstance(t)
	for _, order := range []string{OrderLevelSync, OrderAsync} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := ExploreOpts(p, c, pids, 2, ExploreOptions{
			Limits: ExploreLimits{MaxConfigs: 5_000_000},
			Engine: EngineOptions{Ctx: ctx, Order: order},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: pre-cancelled ctx: err = %v, want context.Canceled", order, err)
		}
		if res != nil {
			t.Fatalf("%s: pre-cancelled ctx returned a result: %+v", order, res)
		}
	}
}

// A deadline shares the cancellation path; the error must say so.
func TestFrontierCancelDeadline(t *testing.T) {
	p, c, pids := cancelInstance(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := ExploreOpts(p, c, pids, 2, ExploreOptions{
		Limits: ExploreLimits{MaxConfigs: 5_000_000},
		Engine: EngineOptions{Ctx: ctx},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run: err = %v, want context.DeadlineExceeded", err)
	}
}

// Cancellation while the spill store is active — sorted runs on disk,
// spool writers open, possibly mid-merge at a barrier — must leave the
// caller-provided spill directory empty: every run file removed, every
// in-progress temp aborted, and no store goroutines behind.
func TestCancelSpillLeavesNoFiles(t *testing.T) {
	p, c, pids := cancelInstance(t)
	dir := t.TempDir()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := ExploreOpts(p, c, pids, 2, ExploreOptions{
		Limits: ExploreLimits{MaxConfigs: 5_000_000},
		Engine: EngineOptions{
			Ctx: ctx, Workers: 4,
			// A 1-byte budget forces a spill at every level barrier, so
			// the cancel lands with real disk state in play.
			Store: StoreSpill, MemBudget: 1, SpillDir: dir,
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled spill run: err = %v, want context.Canceled", err)
	}
	waitNoGoroutineLeak(t, before)

	var leftover []string
	if werr := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			leftover = append(leftover, path)
		}
		return nil
	}); werr != nil {
		t.Fatal(werr)
	}
	if len(leftover) != 0 {
		t.Fatalf("cancelled spill run left files behind: %v", leftover)
	}
}

// Close on a spill store abandoned mid-level (open spool writers,
// unmerged deltas, published runs) must clean up fully, and a second
// Close must be a safe no-op — the engine's deferred Close can race a
// caller's explicit cleanup under error paths.
func TestSpillStoreCloseIdempotent(t *testing.T) {
	p := stepProto{n: 2, steps: 3}
	cfg := model.MustNewConfig(p, []int{0, 0})
	dir := t.TempDir()
	st, err := newSpillStore(storeCtx{
		workers: 1, nObj: 1, nProc: 2,
		newNode: func() *Node { return &Node{} },
		recycle: func(*Node) {},
	}, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	admit := func(base uint64) {
		t.Helper()
		for i := uint64(0); i < 8; i++ {
			n := &Node{Cfg: cfg}
			n.fp = base + i*0x9e3779b97f4a7c15
			if _, added := st.Claim(n.fp, nil); added {
				st.Queue(0, n)
			}
		}
	}
	// One full level (flushes runs under the 1-byte budget), then a
	// second level abandoned before its barrier (open spools).
	admit(1)
	if _, err := st.EndLevel(1 << 20); err != nil {
		t.Fatal(err)
	}
	admit(1 << 40)

	if err := st.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("closed store left files in its directory: %v", names)
	}
}

// TestSpillSeedTinyBudgetBatchesRuns: a snapshot seeded under a budget
// smaller than a delta table batches its flushes by that table (1,433
// fingerprints fill its 2,048 slots to the growth bound) instead of writing a run every few entries and
// compacting them all every runFanout — which made resuming quadratic in
// the snapshot.
func TestSpillSeedTinyBudgetBatchesRuns(t *testing.T) {
	st, err := newSpillStore(storeCtx{workers: 1, nObj: 1, nProc: 2}, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fps := make([]uint64, 20000)
	for i := range fps {
		fps[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	if err := st.SeedVisited(fps, nil); err != nil {
		t.Fatal(err)
	}
	// 13 delta flushes, and a compaction's merged run for every runFanout
	// of them.
	if got := st.Stats().RunsWritten; got > len(fps)/600 {
		t.Errorf("seeding %d fingerprints wrote %d runs, want at most %d", len(fps), got, len(fps)/600)
	}
	seen := 0
	if err := st.DumpVisited(func(uint64, string) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != len(fps) {
		t.Errorf("the seeded store dumps %d entries, want %d", seen, len(fps))
	}
}

// A context that never fires must not change anything — including on runs
// that complete, where the watcher goroutine has to exit with the run.
func TestFrontierCancelNopCtx(t *testing.T) {
	p, c, pids := cancelInstance(t)
	before := runtime.NumGoroutine()
	plain, err := ExploreOpts(p, c, pids, 2, ExploreOptions{
		Limits: ExploreLimits{MaxConfigs: 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := ExploreOpts(p, c, pids, 2, ExploreOptions{
		Limits: ExploreLimits{MaxConfigs: 3000},
		Engine: EngineOptions{Ctx: context.Background()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Visited != withCtx.Visited || plain.Complete != withCtx.Complete {
		t.Fatalf("ctx-bearing run diverged: %d/%v vs %d/%v",
			withCtx.Visited, withCtx.Complete, plain.Visited, plain.Complete)
	}
	waitNoGoroutineLeak(t, before)
}

// visitFailure is a plain struct error: a different concrete type from
// the *fmt.wrapError the Ctx watcher records.
type visitFailure struct{}

func (visitFailure) Error() string { return "visit failed" }

// TestFrontierConcurrentFailuresOfDifferentTypes: two goroutines failing
// one run with differently-typed errors — the Ctx watcher with a wrapped
// context error, a worker with a struct error from visit — must yield one
// of the two, not a panic. The run's first-error cell boxes the error; a
// bare atomic.Value compare-and-swap panics on the second type, which is
// what every distributed cancel and fail-over used to trip on multi-core
// hosts (a link error racing the context error).
func TestFrontierConcurrentFailuresOfDifferentTypes(t *testing.T) {
	p, c, pids := cancelInstance(t)
	for _, order := range []string{OrderLevelSync, OrderAsync} {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		_, err := RunFrontier(p, c, pids, ExploreLimits{MaxConfigs: 5_000_000},
			EngineOptions{Ctx: ctx, Workers: 2, Order: order},
			func(_ int, n *Node) error {
				if n.Depth < 3 {
					return nil
				}
				once.Do(func() {
					cancel()
					// Let the watcher record its error first, so that this
					// worker's failure is the second, differently-typed one.
					time.Sleep(20 * time.Millisecond)
				})
				return visitFailure{}
			}, nil)
		cancel()
		if !errors.Is(err, context.Canceled) && !errors.As(err, new(visitFailure)) {
			t.Errorf("%s: err = %v, want the context error or the visit error", order, err)
		}
	}
}
