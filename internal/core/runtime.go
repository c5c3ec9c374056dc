package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// Options tunes the runtime SetAgreement. The zero value is valid: no
// backoff, nanosecond-seeded RNG per process.
type Options struct {
	// Backoff enables randomized exponential backoff after a conflicted
	// pass. Algorithm 1 is obstruction-free, not wait-free: under
	// sustained contention two lap counters can chase each other forever.
	// Backoff is the standard contention-management remedy; it does not
	// change the algorithm's steps, only when they are scheduled. A
	// process sleeps a random time up to its bound, which starts at
	// 500ns, doubles per conflicted pass up to 64µs and is reset by a
	// completed one.
	Backoff bool
	// Seed seeds the per-process backoff RNGs; 0 uses the current time.
	Seed int64
}

// The bounds of Options.Backoff's randomized exponential backoff.
const (
	baseBackoff = 500 * time.Nanosecond
	maxBackoff  = 64 * time.Microsecond
)

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	return o
}

// Stats aggregates per-instance operation counts, maintained with atomics.
type Stats struct {
	// Swaps is the total number of Swap operations applied.
	Swaps atomic.Int64
	// Laps is the total number of completed (conflict-free) passes.
	Laps atomic.Int64
	// ConflictPasses is the total number of conflicted passes.
	ConflictPasses atomic.Int64
}

// SetAgreement is the runtime form of Algorithm 1 for real goroutines: it
// drives Protocol's transition function over shared objects that are
// atomic.Values holding the model's ⟨U, id⟩ cells. A Swap exchanges the
// value's data word with the hardware atomic-exchange instruction (its type
// word is fixed once the object is initialized), so this is a faithful
// realization of the paper's swap objects, and the steps between swaps are
// exactly the ones the model checker verifies.
//
// A SetAgreement instance is single-shot: each of the n processes calls
// Propose at most once.
type SetAgreement struct {
	proto *Protocol
	opts  Options
	objs  []atomic.Value
	stats Stats
}

// NewSetAgreement constructs a runtime Algorithm 1 instance with n-k swap
// objects, each initialized to ⟨[0,...,0], ⊥⟩.
func NewSetAgreement(p Params, opts Options) (*SetAgreement, error) {
	proto, err := New(p)
	if err != nil {
		return nil, err
	}
	if p.Ablation != (Ablation{}) {
		return nil, fmt.Errorf("core: the runtime runs the paper's algorithm; ablations are model-only")
	}
	s := &SetAgreement{
		proto: proto,
		opts:  opts.withDefaults(),
		objs:  make([]atomic.Value, len(proto.specs)),
	}
	for i, spec := range proto.specs {
		s.objs[i].Store(spec.Init)
	}
	return s, nil
}

// Params returns the instance parameters.
func (s *SetAgreement) Params() Params { return s.proto.params }

// Stats returns the instance's operation counters.
func (s *SetAgreement) Stats() *Stats { return &s.stats }

// Propose runs Algorithm 1's propose(v) for process pid and returns the
// decided value. It blocks until a decision is reached; with contention
// and Backoff disabled it may spin indefinitely (obstruction-freedom is
// conditional progress).
func (s *SetAgreement) Propose(pid, v int) (int, error) {
	p := s.proto.params
	if pid < 0 || pid >= p.N {
		return 0, fmt.Errorf("core: pid %d outside [0,%d)", pid, p.N)
	}
	if v < 0 || v >= p.M {
		return 0, fmt.Errorf("core: input %d outside [0,%d)", v, p.M)
	}

	var rng *rand.Rand
	if s.opts.Backoff {
		rng = rand.New(rand.NewSource(s.opts.Seed + int64(pid)*0x9E3779B9))
	}
	backoff := baseBackoff

	st := s.proto.Init(pid, v).(state)
	// mine is ⟨U, pid⟩ boxed for the Swap. U is immutable and replaced
	// whenever it changes, so its first element's address names it and
	// mine is boxed again only then, not at every swap.
	var mine model.Value
	var boxed *int
	for st.decided < 0 {
		if &st.u[0] != boxed {
			mine, boxed = model.Pair{First: st.uVal, Second: model.Int(pid)}, &st.u[0]
		}
		prev := s.objs[st.idx].Swap(mine).(model.Value)
		s.stats.Swaps.Add(1)
		next := s.proto.observe(pid, st, prev)
		if next.laps > st.laps {
			s.stats.Laps.Add(1)
			backoff = baseBackoff
		} else if next.idx == 0 {
			// The pass ended in conflict (lines 4-5).
			s.stats.ConflictPasses.Add(1)
			if rng != nil {
				d := time.Duration(rng.Int63n(int64(backoff) + 1))
				time.Sleep(d)
				backoff = min(2*backoff, maxBackoff)
			}
		}
		st = next
	}
	return st.decided, nil
}
