package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/sweep"
)

// The restart scenario end to end: async jobs journaled by one daemon
// are re-admitted — under their original IDs — by the next daemon over
// the same directory, and run to a verdict.
func TestJournalReplaysInFlightJobs(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	body, _ := json.Marshal(Request{Row: "explore", N: 4, K: 2, MaxConfigs: 20000, Async: true})
	resp, err := http.Post(ts1.URL+"/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc jobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts1.Close()
	// Simulate the crash: abandon s1 without Drain/Close, so its journal
	// holds the submission. The job may or may not have appended its
	// "done" by now; to model dying before completion deterministically,
	// rewrite the journal to just the submission line.
	s1.Close()
	jpath := filepath.Join(dir, "jobs.jsonl")
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var submitted []byte
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if bytes.Contains(line, []byte(`"submitted"`)) {
			submitted = append(append(submitted, line...), '\n')
		}
	}
	if len(submitted) == 0 {
		t.Fatalf("journal recorded no submission: %s", raw)
	}
	if err := os.WriteFile(jpath, submitted, 0o644); err != nil {
		t.Fatal(err)
	}

	// The restarted daemon re-admits the job under its original ID.
	var logs []string
	s2, err := New(Config{CacheDir: dir, Logf: func(f string, a ...any) {
		logs = append(logs, f)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	job, ok := s2.jobs.get(acc.ID)
	if !ok {
		t.Fatalf("restarted daemon does not know job %s (logs: %v)", acc.ID, logs)
	}
	waitFor(t, func() bool { _, done := job.Result(); return done })
	jr, _ := job.Result()
	if jr.Result.Status != sweep.StatusOK {
		t.Fatalf("replayed job verdict: %+v", jr.Result)
	}
}

// Unit-level journal contract: pending = submitted without done, order
// preserved, completed submissions compacted away on open.
func TestJournalPendingAndCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")

	j, pending, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending", len(pending))
	}
	reqA := Request{Row: "explore", N: 4, K: 2, MaxConfigs: 100}
	reqB := Request{Row: "explore", N: 5, K: 2, MaxConfigs: 200}
	if err := j.submitted("job-a", reqA); err != nil {
		t.Fatal(err)
	}
	if err := j.submitted("job-b", reqB); err != nil {
		t.Fatal(err)
	}
	if err := j.done("job-a"); err != nil {
		t.Fatal(err)
	}
	j.close()

	_, pending, err = openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != "job-b" || pending[0].Req.N != 5 {
		t.Fatalf("pending = %+v, want just job-b", pending)
	}
	// Compaction on open rewrote the file to live submissions only.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "job-a") {
		t.Fatalf("compacted journal still mentions the finished job: %s", raw)
	}
	if !strings.Contains(string(raw), "job-b") {
		t.Fatalf("compacted journal dropped the live job: %s", raw)
	}
}

// A crash mid-append legitimately tears the final line; the journal
// drops it and replays the rest.
func TestJournalToleratesTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	j, _, err := openJobJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.submitted("job-a", Request{Row: "explore", N: 4, K: 2}); err != nil {
		t.Fatal(err)
	}
	j.close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ev":"submitted","id":"job-tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, pending, err := openJobJournal(path)
	if err != nil {
		t.Fatalf("torn final line failed the open: %v", err)
	}
	if len(pending) != 1 || pending[0].ID != "job-a" {
		t.Fatalf("pending = %+v, want just job-a", pending)
	}
}

// An unparsable line mid-stream is real corruption, not a torn append —
// the open must refuse rather than silently lose jobs.
func TestJournalRejectsMidStreamCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	lines := `{"ev":"submitted","id":"job-a","req":{"row":"explore","n":4,"k":2}}
GARBAGE NOT JSON
{"ev":"submitted","id":"job-b","req":{"row":"explore","n":5,"k":2}}
{"ev":"done","id":"job-a"}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJobJournal(path); err == nil {
		t.Fatal("mid-stream corruption did not fail the open")
	}
}

// Without a cache directory there is no journal; every path through the
// server must tolerate the nil journal.
func TestJournalAbsentWithoutCacheDir(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.journal != nil {
		t.Fatal("cacheless server opened a journal")
	}
	// submitted/done on the nil journal are no-ops, not panics.
	if err := s.journal.submitted("x", Request{}); err != nil {
		t.Fatal(err)
	}
	if err := s.journal.done("x"); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredPairingsNeverServed: the engine pairings the mode table no
// longer allows (async × spill; async × peers overran the budget) are
// answered 400 before the cache is consulted, and a journal entry for one,
// written by a daemon that still accepted it, replays to an error record —
// a verdict such a run left in the cache is never handed out. Async ×
// sym+sleep, which lost states, is legal again as async × sym, its
// synonym's meaning: its entry replays as a fresh async sym run, and the
// slot the retired spelling keyed is never looked up.
func TestRetiredPairingsNeverServed(t *testing.T) {
	for name, engine := range map[string]sweep.EngineSpec{
		"async sym+sleep": {Order: check.OrderAsync, Reduce: check.ReduceSymSleep},
		"async spill":     {Order: check.OrderAsync, Store: check.StoreSpill},
		"async dist":      {Order: check.OrderAsync, Peers: 2},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			req := Request{Row: "explore-anon", N: 4, K: 1, Engine: engine}
			key, err := req.CacheKey()
			if err != nil {
				t.Fatal(err)
			}
			synonym := engine.Reduce == check.ReduceSymSleep
			if synonym {
				twin := req
				twin.Engine.Reduce = check.ReduceSym
				if tkey, err := twin.CacheKey(); err != nil || tkey != key || !strings.Contains(key, " reduce=sym ") {
					t.Fatalf("cache key %q (%v), its sym twin's %q", key, err, tkey)
				}
				key = strings.Replace(key, " reduce=sym ", " reduce=sym+sleep ", 1) // the parent build's key
			}
			cache, err := NewCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			const poisoned = 4242 // the state count of the verdict that must not come back
			cache.Put(key, sweep.Result{Cell: req.Cell(0).ID(), Row: req.Row, N: req.N, K: req.K,
				Status: sweep.StatusOK, States: poisoned, Complete: true, Measured: -1, Certified: -1})
			line, err := json.Marshal(journalEvent{Ev: "submitted", ID: "job-old", Req: &req})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), append(line, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}

			s, ts, _ := newTestServer(t, Config{CacheDir: dir})
			job, ok := s.jobs.get("job-old")
			if !ok {
				t.Fatal("the journal's pending job was not re-admitted")
			}
			waitFor(t, func() bool { _, done := job.Result(); return done })
			jr, _ := job.Result()
			if synonym {
				if jr.Cached || jr.Result.Status != sweep.StatusOK || jr.Result.States == poisoned {
					t.Errorf("replayed job answered %+v, want a fresh run's record", jr)
				}
				return
			}
			if jr.Cached || jr.Result.Status != sweep.StatusError || jr.Result.States == poisoned ||
				!strings.Contains(jr.Result.Error, check.ErrIncompatibleModes.Error()) {
				t.Errorf("replayed job answered %+v, want an incompatible-modes error record", jr)
			}

			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/check", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, check.ErrIncompatibleModes.Error()) {
				t.Errorf("POST /check: HTTP %d error=%q, want 400 naming the mode conflict", resp.StatusCode, eb.Error)
			}
			if st := serverStats(t, ts.URL); st.Cache.Hits != 0 {
				t.Errorf("cache served %d hits for a rejected pairing", st.Cache.Hits)
			}
		})
	}
}
