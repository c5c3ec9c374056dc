package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// waitFor polls cond with a generous deadline — the tests synchronize
// on observable server state, never on sleeps alone.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, &Client{BaseURL: ts.URL}
}

func serverStats(t *testing.T, baseURL string) statsBody {
	t.Helper()
	resp, err := http.Get(baseURL + "/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// The acceptance scenario: two process-permuted submissions of one
// symmetric instance produce ONE exploration and two identical
// verdicts, the second a recorded cache hit.
func TestServePermutedResubmissionHitsCache(t *testing.T) {
	_, ts, client := newTestServer(t, Config{CacheDir: t.TempDir()})

	first, err := client.Check(Request{Row: "explore-anon", N: 4, K: 2,
		Inputs: []int{0, 1, 1, 0}, MaxConfigs: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Result.Status != sweep.StatusOK {
		t.Fatalf("first submission: cached=%v status=%q error=%q",
			first.Cached, first.Result.Status, first.Result.Error)
	}

	second, err := client.Check(Request{Row: "explore-anon", N: 4, K: 2,
		Inputs: []int{1, 0, 0, 1}, MaxConfigs: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("process-permuted resubmission was explored instead of served from cache")
	}
	if second.Result.States != first.Result.States ||
		second.Result.Status != first.Result.Status ||
		second.Result.Complete != first.Result.Complete {
		t.Fatalf("verdicts differ: first %+v, second %+v", first.Result, second.Result)
	}
	if first.CacheKey == "" || first.CacheKey != second.CacheKey {
		t.Fatalf("cache keys differ: %q vs %q", first.CacheKey, second.CacheKey)
	}

	st := serverStats(t, ts.URL)
	if st.Cache.Hits < 1 {
		t.Fatalf("stats recorded no cache hit: %+v", st.Cache)
	}
	// ONE exploration: the scheduler granted exactly one admission.
	if st.Admission.Granted != 1 {
		t.Fatalf("admissions = %d, want 1 (one exploration)", st.Admission.Granted)
	}
}

// Cache persistence through a daemon restart: a fresh Server over the
// same cache directory answers without exploring.
func TestServeCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := Request{Row: "explore", N: 4, K: 2, MaxConfigs: 20000}

	_, _, client1 := newTestServer(t, Config{CacheDir: dir})
	first, err := client1.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("cold cache reported a hit")
	}

	_, ts2, client2 := newTestServer(t, Config{CacheDir: dir})
	second, err := client2.Check(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("restarted daemon re-explored a cached instance")
	}
	if second.Result.States != first.Result.States {
		t.Fatalf("restarted verdict diverged: %d vs %d states", second.Result.States, first.Result.States)
	}
	if st := serverStats(t, ts2.URL); st.Admission.Granted != 0 {
		t.Fatalf("restarted daemon ran %d explorations, want 0", st.Admission.Granted)
	}
}

// A cell that exceeds its timeout is cancelled in-process: the daemon
// reports the timeout, stays healthy, keeps serving other checks, and
// never caches the timeout.
func TestServeTimeoutCancelsInProcess(t *testing.T) {
	_, ts, client := newTestServer(t, Config{CacheDir: t.TempDir()})

	resp, err := client.Check(Request{Row: "explore", N: 6, K: 2,
		MaxConfigs: 5_000_000, TimeoutSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result.Status != sweep.StatusTimeout {
		t.Fatalf("status = %q (error %q), want timeout", resp.Result.Status, resp.Result.Error)
	}

	// The daemon is still healthy and can run other work.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after timeout: HTTP %d", hresp.StatusCode)
	}
	small, err := client.Check(Request{Row: "explore", N: 4, K: 2, MaxConfigs: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if small.Result.Status != sweep.StatusOK {
		t.Fatalf("check after timeout: %+v", small.Result)
	}

	// Retrying the timed-out cell must explore again, not hit a cache.
	retry, err := client.Check(Request{Row: "explore", N: 6, K: 2,
		MaxConfigs: 5_000_000, TimeoutSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	if retry.Cached {
		t.Fatal("timeout verdict was served from cache")
	}
}

// An identical request arriving while the first is still exploring
// rides that exploration: one admission, both verdicts equal.
func TestServeCoalescesInFlight(t *testing.T) {
	s, ts, client := newTestServer(t, Config{CacheDir: t.TempDir()})

	// Async-submit a multi-second exploration, wait until it is actually
	// in flight, then submit the identical request synchronously.
	body, _ := json.Marshal(Request{Row: "explore", N: 6, K: 2,
		MaxConfigs: 300000, Async: true})
	resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc jobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || acc.ID == "" {
		t.Fatalf("async submit: HTTP %d, %+v", resp.StatusCode, acc)
	}
	waitFor(t, func() bool { return s.flights.InFlight() == 1 })

	sync, err := client.Check(Request{Row: "explore", N: 6, K: 2, MaxConfigs: 300000})
	if err != nil {
		t.Fatal(err)
	}
	if !sync.Coalesced && !sync.Cached {
		t.Fatal("identical concurrent request started its own exploration")
	}

	// The async job terminates with the same verdict.
	job, ok := s.jobs.get(acc.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	waitFor(t, func() bool { _, done := job.Result(); return done })
	jr, _ := job.Result()
	if jr.Result.States != sync.Result.States || jr.Result.Status != sync.Result.Status {
		t.Fatalf("coalesced verdicts differ: job %+v vs sync %+v", jr.Result, sync.Result)
	}
	if st := serverStats(t, ts.URL); st.Admission.Granted != 1 {
		t.Fatalf("admissions = %d, want 1", st.Admission.Granted)
	}
}

// /status streams progress lines while the job runs and ends with the
// terminal response line.
func TestServeStatusStreamsProgress(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheDir: t.TempDir()})

	body, _ := json.Marshal(Request{Row: "explore", N: 5, K: 2,
		MaxConfigs: 100000, Async: true})
	resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc jobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	stream, err := http.Get(ts.URL + "/status/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var progressLines, terminal int
	var last CheckResponse
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"depth"`) {
			progressLines++
			continue
		}
		var cr CheckResponse
		if json.Unmarshal([]byte(line), &cr) == nil && cr.Result.Status != "" {
			terminal++
			last = cr
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if progressLines == 0 {
		t.Fatal("stream carried no progress lines")
	}
	if terminal != 1 || last.Result.Status != sweep.StatusOK {
		t.Fatalf("terminal lines = %d, last = %+v", terminal, last.Result)
	}

	// Replays after completion still deliver the verdict.
	replay, err := http.Get(ts.URL + "/status/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Body.Close()
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(replay.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data.String(), `"status":"ok"`) {
		t.Fatalf("replayed stream lacks the verdict: %s", data.String())
	}

	if st, err := http.Get(ts.URL + "/status/no-such-job"); err != nil {
		t.Fatal(err)
	} else {
		st.Body.Close()
		if st.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: HTTP %d, want 404", st.StatusCode)
		}
	}
}

// A saturated daemon refuses new synchronous work with 503 instead of
// queueing unboundedly.
func TestServeBusyReturns503(t *testing.T) {
	s, ts, client := newTestServer(t, Config{Parallelism: 1, MaxQueue: 0, CacheDir: t.TempDir()})

	// Occupy the single slot with a long-running async check.
	body, _ := json.Marshal(Request{Row: "explore", N: 6, K: 2,
		MaxConfigs: 5_000_000, Async: true})
	resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, func() bool { return s.adm.Stats().Running == 1 })

	// A different (non-coalescible) sync request must bounce.
	busyBody, _ := json.Marshal(Request{Row: "explore", N: 4, K: 2, MaxConfigs: 20000})
	busyResp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(busyBody))
	if err != nil {
		t.Fatal(err)
	}
	busyResp.Body.Close()
	if busyResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated daemon: HTTP %d, want 503", busyResp.StatusCode)
	}
	if _, err := client.Check(Request{Row: "explore", N: 4, K: 2, MaxConfigs: 20000}); err == nil {
		t.Fatal("client did not surface the 503")
	}
}

// Malformed and invalid requests are 400s with a diagnostic, and never
// reach the scheduler.
func TestServeRejectsBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"not json":      `{"row":`,
		"unknown row":   `{"row":"nope","n":4,"k":2}`,
		"unknown field": `{"row":"explore","n":4,"k":2,"frobnicate":1}`,
		"bad params":    `{"row":"explore","n":2,"k":2}`,
		"stray inputs":  `{"row":"theorem10","n":3,"k":1,"inputs":[0,1,0]}`,
		"bad inputs":    `{"row":"explore","n":4,"k":2,"inputs":[0,1]}`,
		"bad engine":    `{"row":"explore","n":4,"k":2,"engine":{"store":"floppy"}}`,
		"bad keys":      `{"row":"explore","n":4,"k":2,"engine":{"keys":"exact"}}`,
		"bad workers":   `{"row":"explore","n":4,"k":2,"engine":{"workers":-2}}`,
	} {
		resp, err := http.Post(ts.URL+"/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || eb.Error == "" {
			t.Fatalf("%s: HTTP %d error=%q, want 400 with diagnostic", name, resp.StatusCode, eb.Error)
		}
	}
}

// Drain lets in-flight async work finish; when the grace expires, the
// rest is cancelled in-process and the jobs still terminate (with
// cancellation records), so clients are never left hanging.
func TestServeDrain(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{CacheDir: t.TempDir()})

	submit := func(req Request) string {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var acc jobAccepted
		if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
			t.Fatal(err)
		}
		return acc.ID
	}

	quickID := submit(Request{Row: "explore", N: 4, K: 2, MaxConfigs: 20000, Async: true})
	slowID := submit(Request{Row: "explore", N: 6, K: 2, MaxConfigs: 5_000_000, Async: true})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	s.Drain(ctx)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}

	quick, _ := s.jobs.get(quickID)
	slow, _ := s.jobs.get(slowID)
	qr, done := quick.Result()
	if !done {
		t.Fatal("quick job did not terminate under drain")
	}
	if qr.Result.Status != sweep.StatusOK {
		t.Fatalf("quick job: %+v", qr.Result)
	}
	sr, done := slow.Result()
	if !done {
		t.Fatal("slow job was left hanging by the forced drain")
	}
	if sr.Result.Status == sweep.StatusOK {
		t.Fatalf("slow 5M-config job claims to have finished in 2s: %+v", sr.Result)
	}
}

// The wire vocabulary round-trips: a cell routed through a daemon
// yields a record whose Cell ID matches the local run's, so
// checkpoints work identically in -daemon mode.
func TestServeClientRunCell(t *testing.T) {
	_, _, client := newTestServer(t, Config{CacheDir: t.TempDir()})
	cell := sweep.Cell{Grid: "g", Row: "explore", N: 4, K: 2, MaxConfigs: 20000}
	rec := client.RunCell(cell)
	if rec.Status != sweep.StatusOK {
		t.Fatalf("daemon-run cell: %+v", rec)
	}
	if rec.Cell != cell.ID() {
		t.Fatalf("record cell %q != local cell ID %q", rec.Cell, cell.ID())
	}

	// Transport failure maps to an error record, not a crash.
	bad := &Client{BaseURL: "http://127.0.0.1:1"}
	rec = bad.RunCell(cell)
	if rec.Status != sweep.StatusError || rec.Cell != cell.ID() {
		t.Fatalf("unreachable daemon: %+v", rec)
	}
}

// Closing the server while a check is mid-flight cancels it in-process,
// leaves no temp files in the cache directory, and a second Close is a
// safe no-op.
func TestServeCloseMidFlightIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(Request{Row: "explore", N: 6, K: 2,
		MaxConfigs: 5_000_000, Async: true})
	resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, func() bool { return s.flights.InFlight() == 1 })

	s.Close() // cancels the in-flight exploration and waits it out
	s.Close() // idempotent

	var leftover []string
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			leftover = append(leftover, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(leftover) != 0 {
		t.Fatalf("closed server left temp files: %v", leftover)
	}
}

// /healthz carries the capacity signal an operator or load balancer
// acts on: slot occupancy, queue depth, byte-budget headroom, and the
// cache hit ratio.
func TestServeHealthz(t *testing.T) {
	_, ts, client := newTestServer(t, Config{
		Parallelism: 3, MemBudget: 1 << 30, MaxQueue: 7, CacheDir: t.TempDir(),
	})

	// One explored check and one cache hit give the ratio something to say.
	req := Request{Row: "explore", N: 4, K: 2, MaxConfigs: 20000}
	if _, err := client.Check(req); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Check(req); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz status: %+v", h)
	}
	if h.TotalSlots != 3 || h.RunningSlots != 0 || h.QueueDepth != 0 || h.MaxQueue != 7 {
		t.Fatalf("capacity fields: %+v", h)
	}
	if h.BudgetBytes != 1<<30 || h.HeadroomBytes != 1<<30 || h.UsedBytes != 0 {
		t.Fatalf("budget fields: %+v", h)
	}
	if h.CacheHits != 1 || h.CacheMisses != 1 || h.CacheHitRatio != 0.5 {
		t.Fatalf("cache fields: %+v", h)
	}
	if h.UptimeMS < 0 {
		t.Fatalf("uptime: %+v", h)
	}
}
