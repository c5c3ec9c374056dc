//go:build chaos

package chaostest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// Child-process plumbing: the kill-and-restart matrix re-execs this test
// binary with these env vars set, so TestChaosChild runs one scenario in
// its own process — the only honest way to test process death.
const (
	childEnv    = "REPRO_CHAOS_CHILD" // scenario name; empty = not a child
	childDirEnv = "REPRO_CHAOS_DIR"   // persistent state directory
	childOutEnv = "REPRO_CHAOS_OUT"   // verdict JSON destination
)

// chaosVerdict is the scenario projection compared across clean,
// crashed-and-restarted, and fault-injected runs. Only determinism-
// covered fields belong here (store activity counters reset on resume).
type chaosVerdict struct {
	Visited     int    `json:"visited,omitempty"`
	Complete    bool   `json:"complete"`
	Decided     []int  `json:"decided,omitempty"`
	MaxTogether int    `json:"max_together,omitempty"`
	Violation   bool   `json:"violation"`
	Status      string `json:"status,omitempty"`
	States      int    `json:"states,omitempty"`
}

// exploreEngine is the scenario's engine configuration: spill store
// under a 1-byte budget (runs written and merged at every level) with
// level-barrier checkpoints — the layout that exercises the
// spill.run.write, spill.run.merge and checkpoint.manifest sites.
func exploreEngine(dir string) check.EngineOptions {
	return check.EngineOptions{
		Workers: 4,
		Store:   check.StoreSpill, MemBudget: 1,
		SpillDir:   filepath.Join(dir, "spill"),
		Checkpoint: filepath.Join(dir, "ckpt"),
	}
}

func runExploreScenario(dir string) (chaosVerdict, error) {
	if err := os.MkdirAll(filepath.Join(dir, "spill"), 0o755); err != nil {
		return chaosVerdict{}, err
	}
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	c := model.MustNewConfig(p, []int{0, 1, 2, 0})
	res, err := check.ExploreOpts(p, c, []int{0, 1, 2, 3}, 1, check.ExploreOptions{
		Limits: check.ExploreLimits{MaxConfigs: 20000},
		Engine: exploreEngine(dir),
	})
	if err != nil {
		return chaosVerdict{}, err
	}
	return chaosVerdict{
		Visited: res.Visited, Complete: res.Complete,
		Decided: res.DecidedValues, MaxTogether: res.MaxDecidedTogether,
		Violation: res.AgreementViolation != nil,
	}, nil
}

// runCacheScenario stores one verdict in a persistent serve cache and
// reads it back — the cache.store crash site fires between the entry
// write and its publishing rename.
func runCacheScenario(dir string) (chaosVerdict, error) {
	cache, err := serve.NewCache(dir)
	if err != nil {
		return chaosVerdict{}, err
	}
	rec := sweep.Result{Cell: "chaos-cell", Row: "explore", N: 4, K: 2,
		Status: sweep.StatusOK, States: 1234, Complete: true,
		Measured: -1, Certified: -1}
	cache.Put("chaos-key", rec)
	got, ok := cache.Get("chaos-key")
	if !ok {
		return chaosVerdict{}, errors.New("cache lost the entry it just stored")
	}
	return chaosVerdict{Status: got.Status, States: got.States, Complete: got.Complete}, nil
}

// runServeScenario drives an async job through a daemon over a
// persistent CacheDir — the serve.journal.append site fires before the
// submission (hit 1) or completion (hit 2) journal line. The restarted
// daemon replays whatever the journal holds, then a synchronous /check
// of the same request yields the scenario verdict.
func runServeScenario(dir string) (chaosVerdict, error) {
	s, err := serve.New(serve.Config{CacheDir: dir})
	if err != nil {
		return chaosVerdict{}, err
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := serve.Request{Row: "explore", N: 4, K: 2, MaxConfigs: 20000, Async: true}
	body, err := json.Marshal(req)
	if err != nil {
		return chaosVerdict{}, err
	}
	resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return chaosVerdict{}, fmt.Errorf("async submit: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return chaosVerdict{}, fmt.Errorf("async submit: HTTP %d", resp.StatusCode)
	}

	// The synchronous resubmission coalesces with (or reads the cached
	// verdict of) the async job — and on a restarted daemon, with the
	// journal-replayed job.
	req.Async = false
	sync := serve.NewRetryingClient(ts.URL)
	cr, err := sync.Check(req)
	if err != nil {
		return chaosVerdict{}, err
	}
	return chaosVerdict{Status: cr.Result.Status, States: cr.Result.States,
		Complete: cr.Result.Complete}, nil
}

// runDistScenario is a loopback fail-over run with a scripted peer kill
// mid-level: coordinator, both peers and the re-seed loop all live in
// this one child process, so an armed dist.batch.send (first peer batch)
// or dist.reseed (start of recovery) kills it mid-run. The dist layer
// keeps no on-disk state — a restart re-runs from the initial
// configuration, which is exactly the fail-over soundness claim.
func runDistScenario(string) (chaosVerdict, error) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	res, err := dist.LoopbackExploreOpts(context.Background(), p, []int{0, 1, 2, 0}, 1, check.ExploreOptions{
		Limits: check.ExploreLimits{MaxConfigs: 20000},
		Engine: check.EngineOptions{Workers: 2},
	}, dist.LoopbackOptions{
		Peers: 2, Failover: true, PeerRetries: 1,
		Kill: true, KillPeer: 1, KillAfterWrites: 6,
		Respawn: true,
	})
	if err != nil {
		return chaosVerdict{}, err
	}
	return chaosVerdict{
		Visited: res.Visited, Complete: res.Complete,
		Decided: res.DecidedValues, MaxTogether: res.MaxDecidedTogether,
		Violation: res.AgreementViolation != nil,
	}, nil
}

func runScenario(name, dir string) (chaosVerdict, error) {
	switch name {
	case "explore":
		return runExploreScenario(dir)
	case "cache":
		return runCacheScenario(dir)
	case "serve":
		return runServeScenario(dir)
	case "dist":
		return runDistScenario(dir)
	}
	return chaosVerdict{}, fmt.Errorf("unknown chaos scenario %q", name)
}

// TestChaosChild is the re-exec entry point: it only does anything when
// the parent armed the child env vars.
func TestChaosChild(t *testing.T) {
	scenario := os.Getenv(childEnv)
	if scenario == "" {
		t.Skip("not a chaos child")
	}
	if scenario == "peer" {
		// Long-running distributed-exploration peer: publish the listen
		// address through the out file, then serve until killed (by the
		// parent or by an armed crash point firing mid-run).
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(os.Getenv(childOutEnv), []byte(ln.Addr().String()), 0o644); err != nil {
			t.Fatal(err)
		}
		dist.ServePeer(context.Background(), ln, func(_ string, n, k, m int) (model.Protocol, error) {
			return core.New(core.Params{N: n, K: k, M: m})
		})
		return
	}
	v, err := runScenario(scenario, os.Getenv(childDirEnv))
	if err != nil {
		t.Fatalf("chaos child %s: %v", scenario, err)
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv(childOutEnv), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runChild re-execs the test binary on one scenario. crash optionally
// arms a crash point ("site" or "site:n"). Returns the exit code.
func runChild(t *testing.T, scenario, dir, out, crash string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		childEnv+"="+scenario,
		childDirEnv+"="+dir,
		childOutEnv+"="+out,
		fault.CrashEnv+"="+crash,
	)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if code := ee.ExitCode(); code == fault.CrashExitCode {
			return code
		}
		t.Fatalf("chaos child %s (crash=%q) failed unexpectedly (exit %d):\n%s",
			scenario, crash, ee.ExitCode(), buf.String())
	}
	t.Fatalf("chaos child %s: %v\n%s", scenario, err, buf.String())
	return -1
}

func readVerdict(t *testing.T, path string) chaosVerdict {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("chaos child wrote no verdict: %v", err)
	}
	var v chaosVerdict
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// cleanVerdict runs a scenario uninterrupted in a throwaway directory.
func cleanVerdict(t *testing.T, scenario string) chaosVerdict {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "verdict.json")
	if code := runChild(t, scenario, filepath.Join(dir, "state"), out, ""); code != 0 {
		t.Fatalf("clean %s run exited %d", scenario, code)
	}
	return readVerdict(t, out)
}

// assertNoTempFiles walks the scenario state directory for leftover
// *.tmp files — quarantined artifacts are legitimate, half-written
// temporaries are not.
func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	var stray []string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			stray = append(stray, path)
		}
		return nil
	})
	if len(stray) != 0 {
		t.Fatalf("stray temp files under %s: %v", dir, stray)
	}
}

// TestChaosKillRestartMatrix is the acceptance matrix: for every
// registered crash point, a child killed at the worst legal moment and
// restarted over the same state must reach the clean run's verdict.
func TestChaosKillRestartMatrix(t *testing.T) {
	// Which scenario exercises which site, and at which hit. The second
	// journal entry (the "done" event) gets its own cell: crashing there
	// leaves a submitted-but-unfinished job for replay.
	cells := []struct {
		site     string
		scenario string
	}{
		{fault.CrashSpillRunWrite, "explore"},
		{fault.CrashSpillRunMerge, "explore"},
		{fault.CrashCheckpointManifest, "explore"},
		{fault.CrashCheckpointManifest + ":3", "explore"},
		{fault.CrashCacheStore, "cache"},
		{fault.CrashJournalAppend, "serve"},
		{fault.CrashJournalAppend + ":2", "serve"},
		{fault.CrashDistBatchSend, "dist"},
		{fault.CrashDistReseed, "dist"},
	}
	// Every registered site must appear in the matrix: a new crash point
	// without a chaos cell is not covered.
	for _, site := range fault.Sites() {
		found := false
		for _, c := range cells {
			if strings.TrimSuffix(c.site, ":2") == site || strings.TrimSuffix(c.site, ":3") == site {
				found = true
			}
		}
		if !found {
			t.Fatalf("registered crash site %q has no kill-and-restart cell", site)
		}
	}

	clean := map[string]chaosVerdict{}
	for _, scenario := range []string{"explore", "cache", "serve", "dist"} {
		clean[scenario] = cleanVerdict(t, scenario)
	}

	for _, cell := range cells {
		cell := cell
		t.Run(cell.site, func(t *testing.T) {
			base := t.TempDir()
			state := filepath.Join(base, "state")
			out := filepath.Join(base, "verdict.json")

			code := runChild(t, cell.scenario, state, out, cell.site)
			if code != fault.CrashExitCode {
				t.Fatalf("crash point %s was never reached (exit %d) — scenario %q does not exercise it",
					cell.site, code, cell.scenario)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("killed child wrote a verdict anyway")
			}

			// Restart over the same state, unarmed: must complete and
			// match the uninterrupted verdict.
			if code := runChild(t, cell.scenario, state, out, ""); code != 0 {
				t.Fatalf("restarted %s run exited %d", cell.scenario, code)
			}
			got, want := readVerdict(t, out), clean[cell.scenario]
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("restarted verdict diverged from clean run:\n  restarted %+v\n  clean     %+v", got, want)
			}
			assertNoTempFiles(t, state)
		})
	}
}

// TestChaosInjectedIO is the fault-injection differential: every
// injected I/O fault must yield either the clean verdict (the layer
// recovered) or a typed error (fail-stop) — never a silently wrong
// verdict, a leaked goroutine, or a stray temp file.
func TestChaosInjectedIO(t *testing.T) {
	cleanDir := t.TempDir()
	want, err := runExploreScenario(filepath.Join(cleanDir, "state"))
	if err != nil {
		t.Fatal(err)
	}

	rules := []struct {
		name string
		rule fault.Rule
	}{
		{"spill-write-enospc", fault.Rule{Path: "spill", Op: fault.OpWrite, Err: syscall.ENOSPC, After: 3}},
		{"spill-write-torn", fault.Rule{Path: "spill", Op: fault.OpWrite, Err: syscall.EIO, Torn: true, After: 2}},
		{"spill-rename-eio", fault.Rule{Path: "spill", Op: fault.OpRename, Err: syscall.EIO}},
		{"spill-read-corrupt", fault.Rule{Path: "spill", Op: fault.OpRead, Corrupt: true, After: 4, Count: 1}},
		{"ckpt-write-enospc", fault.Rule{Path: "ckpt", Op: fault.OpWrite, Err: syscall.ENOSPC, After: 5}},
		{"ckpt-rename-eio", fault.Rule{Path: "ckpt", Op: fault.OpRename, Err: syscall.EIO, After: 1}},
	}
	for _, tc := range rules {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			dir := filepath.Join(t.TempDir(), "state")
			fault.Inject(tc.rule)
			got, err := runExploreScenario(dir)
			injected := fault.Injected()
			fault.Reset()

			switch {
			case err != nil:
				// Fail-stop: acceptable, as long as the error is a real
				// one (an injected fault or a quarantined artifact), not
				// a mangled verdict.
				t.Logf("fail-stop: %v", err)
				var corrupt *check.CorruptArtifactError
				if !errors.Is(err, syscall.ENOSPC) && !errors.Is(err, syscall.EIO) &&
					!errors.As(err, &corrupt) {
					t.Fatalf("untyped failure: %v", err)
				}
			case injected == 0:
				// The rule never fired (fault path not taken this run):
				// the verdict must simply be clean.
				fallthrough
			default:
				if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Fatalf("injected fault changed the verdict silently:\n  got  %+v\n  want %+v\n  (rule %+v, %d injections)",
						got, want, tc.rule, injected)
				}
			}
			assertNoTempFiles(t, dir)
			waitNoLeak(t, before)
		})
	}
}

// startPeerChild launches a real `dist.ServePeer` process (a re-exec of
// this binary), optionally armed with a crash point, and returns its
// published listen address.
func startPeerChild(t *testing.T, crash string) (string, *exec.Cmd) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "addr")
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		childEnv+"=peer",
		childDirEnv+"="+dir,
		childOutEnv+"="+out,
		fault.CrashEnv+"="+crash,
	)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(out); err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data)), cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer child never published an address:\n%s", buf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosDistPeerKillFailover is the cross-process fail-over
// differential: two real peer processes over TCP, one armed to die at
// its first batch send. The coordinator (this process, fail-over on)
// must detect the death, fail to re-dial the dead slot, degrade onto the
// survivor, and still produce the single-process verdict.
func TestChaosDistPeerKillFailover(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 1, M: 3})
	inputs := []int{0, 1, 2, 0}
	c := model.MustNewConfig(p, inputs)
	limits := check.ExploreLimits{MaxConfigs: 20000}
	oracle, err := check.ExploreOpts(p, c, []int{0, 1, 2, 3}, 1, check.ExploreOptions{Limits: limits})
	if err != nil {
		t.Fatal(err)
	}

	addrA, _ := startPeerChild(t, "")
	addrB, cmdB := startPeerChild(t, fault.CrashDistBatchSend)

	res, err := dist.Dial(context.Background(), p, []string{addrA, addrB}, dist.Spec{
		Proto: p.Name(), N: 4, K: 1, M: 3, AgreeK: 1, Inputs: inputs,
		Limits:   limits,
		Failover: true, PeerRetries: 2, Heartbeat: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fail-over coordinator: %v", err)
	}

	// The armed peer must have died at the crash point, not survived.
	werr := cmdB.Wait()
	var ee *exec.ExitError
	if !errors.As(werr, &ee) || ee.ExitCode() != fault.CrashExitCode {
		t.Fatalf("armed peer exit = %v, want crash exit code %d", werr, fault.CrashExitCode)
	}

	if res.Visited != oracle.Visited || res.Complete != oracle.Complete ||
		fmt.Sprint(res.DecidedValues) != fmt.Sprint(oracle.DecidedValues) ||
		(res.AgreementViolation != nil) != (oracle.AgreementViolation != nil) {
		t.Errorf("degraded verdict diverged: visited=%d/%d complete=%v/%v decided=%v/%v",
			res.Visited, oracle.Visited, res.Complete, oracle.Complete,
			res.DecidedValues, oracle.DecidedValues)
	}
	if res.Net.PeersLost != 1 {
		t.Errorf("peers_lost = %d, want 1", res.Net.PeersLost)
	}
	if res.Net.Peers != 1 {
		t.Errorf("verdict epoch ran on %d peers, want the 1 survivor", res.Net.Peers)
	}
	if res.Net.ReseededPartitions < int64(check.DistNumParts) {
		t.Errorf("reseeded_partitions = %d, want >= %d", res.Net.ReseededPartitions, check.DistNumParts)
	}
}

func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after injected fault: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
