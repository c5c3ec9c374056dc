package serve

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/check"
)

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
)

// Job is one asynchronous check: submitted via /check with
// "async": true, observable via /status/<id>. Its event log is a
// sequence of JSON lines — progress reports while running, then exactly
// one terminal line carrying the full response — so a client can either
// poll or hold the stream open.
type Job struct {
	ID   string `json:"id"`
	Cell string `json:"cell"`

	mu     sync.Mutex
	state  string
	events []string
	result *CheckResponse
	// changed is closed (and replaced) whenever events grow or the state
	// changes, so streamers can wait without polling.
	changed chan struct{}
}

// event appends one JSON line and wakes streamers.
func (j *Job) event(line string) {
	j.mu.Lock()
	j.events = append(j.events, line)
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
}

// setState transitions the job's lifecycle and emits a state line.
func (j *Job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.events = append(j.events, fmt.Sprintf(`{"job":%q,"state":%q}`, j.ID, state))
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
}

// Progress is the engine hook: each report becomes one event line.
func (j *Job) Progress(p check.Progress) {
	order := p.Order
	if order == "" {
		order = check.OrderLevelSync
	}
	j.event(fmt.Sprintf(
		`{"job":%q,"order":%q,"depth":%d,"frontier":%d,"processed":%d,"admitted":%d,"elapsed_ms":%d}`,
		j.ID, order, p.Depth, p.FrontierSize, p.Processed, p.Admitted, p.Elapsed.Milliseconds()))
}

// finish records the terminal response and emits it as the last line.
func (j *Job) finish(resp CheckResponse) {
	data, err := json.Marshal(resp)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	j.mu.Lock()
	j.state = JobDone
	j.result = &resp
	j.events = append(j.events, string(data))
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
}

// snapshot returns the event lines from index `from`, whether the job is
// terminal, and a channel that will be closed on the next change — the
// streaming handler's wait primitive.
func (j *Job) snapshot(from int) (lines []string, done bool, wake <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		lines = append(lines, j.events[from:]...)
	}
	return lines, j.state == JobDone, j.changed
}

// Result returns the terminal response once the job is done.
func (j *Job) Result() (CheckResponse, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return CheckResponse{}, false
	}
	return *j.result, true
}

// jobRegistry issues IDs and resolves them for /status.
type jobRegistry struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*Job
}

func newJobRegistry() *jobRegistry {
	return &jobRegistry{jobs: map[string]*Job{}}
}

// create registers a fresh queued job for a cell. IDs carry a timestamp
// so they stay unique across daemon restarts in client logs (the
// registry itself is in-memory only; the job journal re-admits
// in-flight work across restarts).
func (r *jobRegistry) create(cellID string) *Job {
	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("job-%d-%d", time.Now().Unix(), r.seq)
	r.mu.Unlock()
	return r.createWithID(id, cellID)
}

// createWithID registers a queued job under a caller-chosen ID — the
// journal replay path, which must preserve the IDs clients already
// hold so their /status streams resolve after a daemon restart.
func (r *jobRegistry) createWithID(id, cellID string) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := &Job{
		ID:   id,
		Cell: cellID, state: JobQueued,
		changed: make(chan struct{}),
	}
	r.jobs[j.ID] = j
	return j
}

func (r *jobRegistry) get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}
