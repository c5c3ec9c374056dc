package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// cell is the immutable value stored in each runtime swap object: the
// ⟨lap counter, identifier⟩ pair. A cell is never mutated after it is
// published via Swap; fresh cells are allocated for every swap.
type cell struct {
	// u is the lap counter field, one entry per input value.
	u []int
	// pid is the identifier field; -1 encodes ⊥ (the initial value).
	pid int
}

func (c *cell) isOwn(pid int, u []int) bool {
	if c.pid != pid || len(c.u) != len(u) {
		return false
	}
	for j := range u {
		if c.u[j] != u[j] {
			return false
		}
	}
	return true
}

// Options tunes the runtime SetAgreement. The zero value is valid: no
// backoff, nanosecond-seeded RNG per process.
type Options struct {
	// Backoff enables randomized exponential backoff after a conflicted
	// pass. Algorithm 1 is obstruction-free, not wait-free: under
	// sustained contention two lap counters can chase each other forever.
	// Backoff is the standard contention-management remedy; it does not
	// change the algorithm's steps, only when they are scheduled.
	Backoff bool
	// BaseBackoff is the initial backoff duration (default 500ns).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff (default 64µs).
	MaxBackoff time.Duration
	// Seed seeds the per-process backoff RNGs; 0 uses the current time.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 500 * time.Nanosecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 64 * time.Microsecond
	}
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

// SetAgreement is the runtime form of Algorithm 1 for real goroutines. The
// shared objects are atomic.Pointer cells; atomic.Pointer.Swap compiles to
// the hardware atomic-exchange instruction, so this is a faithful
// realization of the paper's swap objects.
//
// A SetAgreement instance is single-shot: each of the n processes calls
// Propose at most once.
type SetAgreement struct {
	params Params
	opts   Options
	objs   []atomic.Pointer[cell]
	stats  Stats
}

// NewSetAgreement constructs a runtime Algorithm 1 instance with n-k swap
// objects, each initialized to ⟨[0,...,0], ⊥⟩.
func NewSetAgreement(p Params, opts Options) (*SetAgreement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Ablation != (Ablation{}) {
		return nil, fmt.Errorf("core: the runtime runs the paper's algorithm; ablations are model-only")
	}
	s := &SetAgreement{
		params: p,
		opts:   opts.withDefaults(),
		objs:   make([]atomic.Pointer[cell], p.NumObjects()),
	}
	initial := &cell{u: make([]int, p.M), pid: -1}
	for i := range s.objs {
		s.objs[i].Store(initial)
	}
	return s, nil
}

// Params returns the instance parameters.
func (s *SetAgreement) Params() Params { return s.params }

// Stats returns the instance's operation counters.
func (s *SetAgreement) Stats() *Stats { return &s.stats }

// Propose runs Algorithm 1's propose(v) for process pid and returns the
// decided value. It blocks until a decision is reached; with contention
// and Backoff disabled it may spin indefinitely (obstruction-freedom is
// conditional progress).
func (s *SetAgreement) Propose(pid, v int) (int, error) {
	p := s.params
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
	backoff := s.opts.BaseBackoff

	// Lines 2-3: initialize the local lap counter.
	u := make([]int, p.M)
	u[v] = 1

	for {
		// Lines 5-12: one pass swapping ⟨U, pid⟩ through every object.
		conflict := false
		for i := range s.objs {
			mine := &cell{u: append([]int(nil), u...), pid: pid}
			prev := s.objs[i].Swap(mine)
			s.stats.Swaps.Add(1)
			if !prev.isOwn(pid, u) {
				conflict = true
				if !intsEqual(prev.u, u) {
					for j := range u {
						if prev.u[j] > u[j] {
							u[j] = prev.u[j]
						}
					}
				}
			}
		}
		if conflict {
			s.stats.ConflictPasses.Add(1)
			if rng != nil {
				d := time.Duration(rng.Int63n(int64(backoff) + 1))
				time.Sleep(d)
				if backoff < s.opts.MaxBackoff {
					backoff *= 2
					if backoff > s.opts.MaxBackoff {
						backoff = s.opts.MaxBackoff
					}
				}
			}
			continue
		}

		// Lines 13-20: lap completed.
		s.stats.Laps.Add(1)
		backoff = s.opts.BaseBackoff
		c, lead := u[0], 0
		for j, x := range u {
			if x > c {
				c, lead = x, j
			}
		}
		ahead := true
		for j, x := range u {
			if j != lead && u[lead] < x+2 {
				ahead = false
				break
			}
		}
		if ahead {
			return lead, nil // lines 17-18
		}
		u[lead] = c + 1 // line 20
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
