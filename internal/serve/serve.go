package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/sweep"
)

// Config sizes a Server.
type Config struct {
	// Parallelism is the number of checks that may execute concurrently
	// (0 = GOMAXPROCS). Each admitted check still uses its own engine
	// worker pool, so this bounds explorations, not goroutines.
	Parallelism int
	// MemBudget is the global byte budget shared by all running checks
	// (0 = unconstrained). Each check carves out its declared engine
	// mem_budget, or DefaultReqBudget when it declares none.
	MemBudget int64
	// DefaultReqBudget is the per-request carve-out assumed for requests
	// that do not declare an engine mem_budget (0 = no carve-out; such
	// requests are constrained only by Parallelism).
	DefaultReqBudget int64
	// MaxQueue bounds how many admitted requests may wait for a slot
	// beyond the running ones; a full queue refuses new work with 503
	// (-1 = unbounded).
	MaxQueue int
	// CacheDir is the persistent result cache's directory ("" = cache in
	// memory only).
	CacheDir string
	// DefaultTimeout bounds each check's wall time unless the request
	// sets its own (0 = none).
	DefaultTimeout time.Duration
	// Logf, when non-nil, receives one line per served check.
	Logf func(format string, args ...any)
}

// CheckResponse is /check's payload: the full sweep JSONL record plus
// how it was obtained.
type CheckResponse struct {
	// Cached: answered from the persistent result cache, no exploration.
	Cached bool `json:"cached,omitempty"`
	// Coalesced: rode an identical in-flight request's exploration.
	Coalesced bool `json:"coalesced,omitempty"`
	// CacheKey is the verdict's cache identity (orbit-canonical; see
	// Request.CacheKey).
	CacheKey string `json:"cache_key,omitempty"`
	// Result is the same record cmd/sweep writes to its JSONL stream.
	Result sweep.Result `json:"result"`
}

// jobAccepted is the 202 payload for async submissions.
type jobAccepted struct {
	ID    string `json:"id"`
	Cell  string `json:"cell"`
	State string `json:"state"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
}

// Server is the checker service: share-nothing HTTP handlers over one
// cache, one admission scheduler, one coalescing group and one job
// registry.
type Server struct {
	cfg     Config
	cache   *Cache
	adm     *Admission
	flights *flightGroup
	jobs    *jobRegistry
	// journal records async submissions so a restarted daemon re-admits
	// in-flight work; nil when the server has no cache directory.
	journal *jobJournal

	// ctx is the daemon's lifetime: cancelling it (Drain's last resort)
	// cancels every in-flight engine run in-process.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // async job goroutines
	start  time.Time

	mu     sync.Mutex
	checks int64
}

// New builds a Server (opening or creating the cache directory).
func New(cfg Config) (*Server, error) {
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	cache, err := NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		adm:     NewAdmission(cfg.Parallelism, cfg.MemBudget, cfg.MaxQueue),
		flights: newFlightGroup(),
		jobs:    newJobRegistry(),
		ctx:     ctx, cancel: cancel,
		start: time.Now(),
	}
	if cfg.CacheDir != "" {
		journal, pending, err := openJobJournal(filepath.Join(cfg.CacheDir, "jobs.jsonl"))
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = journal
		// Re-admit the previous daemon's in-flight async jobs under their
		// original IDs, so clients polling /status resolve after the
		// restart. Completed-and-cached cells answer instantly.
		for _, p := range pending {
			s.logf("journal: re-admitting job %s", p.ID)
			s.launchJob(s.jobs.createWithID(p.ID, p.Req.Cell(cfg.DefaultTimeout).ID()), p.Req)
		}
	}
	return s, nil
}

// launchJob runs one async job on its own goroutine, journaling its
// completion.
func (s *Server) launchJob(job *Job, req Request) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		job.setState(JobRunning)
		resp, err := s.execute(req, job.Progress)
		if err != nil {
			resp = CheckResponse{Result: errorResult(req, err)}
		}
		job.finish(resp)
		if jerr := s.journal.done(job.ID); jerr != nil {
			s.logf("journal: %v", jerr)
		}
	}()
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /check", s.handleCheck)
	mux.HandleFunc("GET /status/{id}", s.handleStatus)
	mux.HandleFunc("GET /cache/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// Drain waits for in-flight asynchronous jobs to finish; if ctx fires
// first, the rest are cancelled in-process (their records report the
// cancellation). Synchronous checks ride their HTTP request goroutines,
// which http.Server.Shutdown already waits for — call Drain after it.
func (s *Server) Drain(ctx context.Context) {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	s.cancel()
	s.wg.Wait()
	s.journal.close()
}

// Close force-cancels everything immediately.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
	s.journal.close()
}

// execute answers one validated request: cache, then coalesced
// admission-controlled execution. progress (optional) receives the
// engine's reports only when this request is the one executing — a
// coalesced or cached answer has no exploration to report on.
func (s *Server) execute(req Request, progress func(check.Progress)) (CheckResponse, error) {
	// POST /check validated the request; a job re-admitted from the
	// journal was validated by the daemon that wrote it, whose mode table
	// may have allowed what this one's does not. Checked before the cache,
	// so a verdict such a pairing left there is never served.
	if err := req.Engine.Validate(); err != nil {
		return CheckResponse{}, err
	}
	key, err := req.CacheKey()
	if err != nil {
		return CheckResponse{}, err
	}
	if !req.NoCache {
		if rec, ok := s.cache.Get(key); ok {
			s.logf("cell=%s cached status=%s", rec.Cell, rec.Status)
			return CheckResponse{Cached: true, CacheKey: key, Result: rec}, nil
		}
	}
	rec, shared, err := s.flights.Do(key, func() (sweep.Result, error) {
		carve := req.Engine.MemBudgetBytes()
		if carve == 0 {
			carve = s.cfg.DefaultReqBudget
		}
		release, err := s.adm.Acquire(s.ctx, carve)
		if err != nil {
			return sweep.Result{}, err
		}
		defer release()
		cell := req.Cell(s.cfg.DefaultTimeout)
		cell.Progress = progress
		rec := sweep.RunCellRecordCtx(s.ctx, cell)
		s.cache.Put(key, rec)
		return rec, nil
	})
	if err != nil {
		return CheckResponse{}, err
	}
	s.mu.Lock()
	s.checks++
	s.mu.Unlock()
	s.logf("cell=%s status=%s coalesced=%v wall=%.0fms", rec.Cell, rec.Status, shared, rec.WallMS)
	return CheckResponse{Coalesced: shared, CacheKey: key, Result: rec}, nil
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeRequest(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	if req.Async {
		job := s.jobs.create(req.Cell(s.cfg.DefaultTimeout).ID())
		if jerr := s.journal.submitted(job.ID, req); jerr != nil {
			s.logf("journal: %v", jerr)
		}
		s.launchJob(job, req)
		writeJSON(w, http.StatusAccepted, jobAccepted{ID: job.ID, Cell: job.Cell, State: JobQueued})
		return
	}
	resp, err := s.execute(req, nil)
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleStatus streams a job's event log as NDJSON: everything logged
// so far immediately, then new lines as they happen, ending with the
// terminal response line. A finished job replays its whole log, so
// polling after completion still sees the verdict.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{fmt.Sprintf("unknown job %q", r.PathValue("id"))})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, canFlush := w.(http.Flusher)
	from := 0
	for {
		lines, done, wake := job.snapshot(from)
		for _, line := range lines {
			if _, err := io.WriteString(w, line+"\n"); err != nil {
				return
			}
		}
		from += len(lines)
		if len(lines) > 0 && canFlush {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// statsBody is /cache/stats: the cache plus the scheduler and
// coalescing counters a capacity investigation needs alongside it.
type statsBody struct {
	Cache     CacheStats     `json:"cache"`
	Admission AdmissionStats `json:"admission"`
	Coalesced int64          `json:"coalesced"`
	InFlight  int            `json:"in_flight"`
	Checks    int64          `json:"checks"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	checks := s.checks
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, statsBody{
		Cache:     s.cache.Stats(),
		Admission: s.adm.Stats(),
		Coalesced: s.flights.Coalesced(),
		InFlight:  s.flights.InFlight(),
		Checks:    checks,
	})
}

// healthBody is /healthz: a liveness answer with enough capacity signal
// for a load balancer or an operator to act on — slot occupancy, queue
// depth, byte-budget headroom, and the cache hit ratio.
type healthBody struct {
	Status        string  `json:"status"`
	UptimeMS      int64   `json:"uptime_ms"`
	InFlight      int     `json:"in_flight"`
	RunningSlots  int     `json:"running_slots"`
	TotalSlots    int     `json:"total_slots"`
	QueueDepth    int     `json:"queue_depth"`
	MaxQueue      int     `json:"max_queue"`
	BudgetBytes   int64   `json:"budget_bytes,omitempty"`
	UsedBytes     int64   `json:"used_bytes"`
	HeadroomBytes int64   `json:"headroom_bytes,omitempty"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	adm := s.adm.Stats()
	cs := s.cache.Stats()
	body := healthBody{
		Status:       "ok",
		UptimeMS:     time.Since(s.start).Milliseconds(),
		InFlight:     s.flights.InFlight(),
		RunningSlots: adm.Running,
		TotalSlots:   adm.Slots,
		QueueDepth:   adm.Queue,
		MaxQueue:     adm.MaxQueue,
		BudgetBytes:  adm.Budget,
		UsedBytes:    adm.UsedBytes,
		CacheHits:    cs.Hits,
		CacheMisses:  cs.Misses,
	}
	if adm.Budget > 0 {
		body.HeadroomBytes = adm.Budget - adm.UsedBytes
	}
	if lookups := cs.Hits + cs.Misses; lookups > 0 {
		body.CacheHitRatio = float64(cs.Hits) / float64(lookups)
	}
	writeJSON(w, http.StatusOK, body)
}

// errorResult wraps an execution-path error (admission refusal, bad
// key) as a record so async jobs always terminate with a JSONL line.
func errorResult(req Request, err error) sweep.Result {
	cell := req.Cell(0)
	return sweep.Result{
		Grid: "serve", Cell: cell.ID(), Row: req.Row, N: req.N, K: req.K,
		Inputs: req.Inputs, Status: sweep.StatusError, Error: err.Error(),
		Measured: -1, Certified: -1,
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(data, '\n'))
}
