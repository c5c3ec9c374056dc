// Package serve is the checker-as-a-service layer: a long-running
// daemon (cmd/mcheckd) that accepts instance specifications in the sweep
// registry's cell format over HTTP/JSON, keys results on the
// orbit-canonical instance fingerprint so process-permuted resubmissions
// of one instance hit a persistent result cache, coalesces identical
// in-flight requests onto a single exploration, and schedules concurrent
// checks under a global memory and CPU budget with per-cell timeouts.
// The one-shot CLIs (mcheck, sweep, lbcheck) stay the batch entry
// points; this package is what turns the same scenario registry into a
// shared service.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/sweep"
)

// Request is the wire form of one check: the sweep registry's cell
// axes, plus service-level knobs (async submission, per-request
// timeout). It deliberately reuses sweep.EngineSpec verbatim so a grid
// cell and a service request are the same vocabulary.
type Request struct {
	// Row is the scenario key from the sweep registry ("explore",
	// "consensus-swap", ...).
	Row string `json:"row"`
	// N and K are the instance parameters (n > k >= 1).
	N int `json:"n"`
	K int `json:"k"`
	// Inputs optionally pins the initial input assignment for rows that
	// model-check one concrete instance; empty means the row's default.
	Inputs []int `json:"inputs,omitempty"`
	// Engine selects frontier-engine options (all optional).
	Engine sweep.EngineSpec `json:"engine,omitzero"`
	// Schedules and Seed configure adversarial-schedule validation.
	Schedules int   `json:"schedules,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	// MaxConfigs and MaxDepth override the scenario's search budget.
	MaxConfigs int `json:"max_configs,omitempty"`
	MaxDepth   int `json:"max_depth,omitempty"`
	// TimeoutSec bounds the check's wall time (0 = the daemon default).
	TimeoutSec int `json:"timeout_sec,omitempty"`
	// Async makes /check return a job ID immediately instead of blocking
	// for the verdict; poll or stream /status/<id>.
	Async bool `json:"async,omitempty"`
	// NoCache forces a fresh exploration. The fresh verdict still
	// refreshes the cache for later requests.
	NoCache bool `json:"no_cache,omitempty"`
}

// DecodeRequest parses and validates a request body. Unknown fields are
// rejected so a typo'd knob fails loudly instead of silently running a
// different experiment than the client asked for.
func DecodeRequest(r io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("serve: parse request: %w", err)
	}
	if err := req.Validate(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// Validate checks the request against the registry before any resources
// are committed to it.
func (r Request) Validate() error {
	spec, ok := sweep.RowByKey(r.Row)
	if !ok {
		return fmt.Errorf("serve: unknown row %q (have %v)", r.Row, sweep.RowKeys())
	}
	if r.N <= r.K || r.K < 1 {
		return fmt.Errorf("serve: need n > k >= 1, got n=%d k=%d", r.N, r.K)
	}
	if spec.Applies != nil && !spec.Applies(r.N, r.K) {
		return fmt.Errorf("serve: row %q does not apply at n=%d k=%d", r.Row, r.N, r.K)
	}
	if len(r.Inputs) > 0 && spec.Instance == nil {
		return fmt.Errorf("serve: row %q does not take explicit inputs", r.Row)
	}
	if err := r.Engine.Validate(); err != nil {
		return err
	}
	if r.TimeoutSec < 0 {
		return fmt.Errorf("serve: negative timeout_sec %d", r.TimeoutSec)
	}
	// Surface bad inputs at admission time rather than from the runner:
	// the fingerprint path builds the instance, so it validates them.
	if _, _, err := r.Cell(0).InstanceFingerprint(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Cell translates the request into a runnable sweep cell under the
// given default timeout (the request's own TimeoutSec wins when set).
// Grid is stamped "serve" so JSONL records are attributable.
func (r Request) Cell(defaultTimeout time.Duration) sweep.Cell {
	timeout := defaultTimeout
	if r.TimeoutSec > 0 {
		timeout = time.Duration(r.TimeoutSec) * time.Second
	}
	return sweep.Cell{
		Grid: "serve", Row: r.Row, N: r.N, K: r.K,
		Inputs: r.Inputs, Engine: r.Engine,
		Schedules: r.Schedules, Seed: r.Seed,
		MaxConfigs: r.MaxConfigs, MaxDepth: r.MaxDepth,
		Timeout: timeout,
	}
}

// CacheKey derives the request's result-cache key: every axis that can
// change the verdict, in a fixed order. Two requests with equal keys are
// interchangeable experiments, so the second may be answered from the
// first's record.
//
// The instance component is the orbit-canonical fingerprint of the
// initial configuration (sweep.Cell.InstanceFingerprint): for protocols
// that declare process symmetry, process-permuted input assignments of
// one instance share the fingerprint — and therefore the cache slot —
// because the explored quotient space is identical. The raw inputs are
// deliberately NOT part of the key for such rows.
//
// Deliberately excluded, with reasons:
//
//   - Engine Workers: verdicts are scheduling-independent by
//     the engine's determinism contract, so a 1-worker and a 16-worker
//     run of the same cell must share a slot.
//   - Timeout: a verdict that was reached is the verdict; the timeout
//     only decides whether one is reached, and timed-out records are
//     never cached.
func (r Request) CacheKey() (string, error) {
	cell := r.Cell(0)
	fp, hasInstance, err := cell.InstanceFingerprint()
	if err != nil {
		return "", err
	}
	eng := r.Engine.Canonical()
	var b strings.Builder
	fmt.Fprintf(&b, "row=%s n=%d k=%d", r.Row, r.N, r.K)
	fmt.Fprintf(&b, " keys=%s store=%s membudget=%s reduce=%s order=%s",
		eng.Keys, eng.Store, eng.MemBudget, eng.Reduce, eng.Order)
	fmt.Fprintf(&b, " sched=%d seed=%d maxconfigs=%d maxdepth=%d",
		r.Schedules, r.Seed, r.MaxConfigs, r.MaxDepth)
	if hasInstance {
		fmt.Fprintf(&b, " fp=%016x", fp)
	}
	return b.String(), nil
}

// cacheFileName maps a key to its on-disk entry name. Keys are hashed:
// they contain characters that are awkward in filenames, and the hash
// keeps names uniform; the full key is stored inside the entry and
// verified on read, so a hash collision degrades to a miss, never to a
// wrong verdict.
func cacheFileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16]) + ".json"
}
