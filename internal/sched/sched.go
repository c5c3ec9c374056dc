// Package sched provides schedulers for the shared-memory model: the
// entity that, in every configuration, "picks a process that has not
// decided to take its next step" (Section 2 of the paper). Schedulers are
// deterministic given their construction parameters, so every run is
// replayable; the random scheduler is seeded.
package sched

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Scheduler picks the next process to step. Next receives the current
// configuration and the list of active (undecided, schedulable) process
// ids in ascending order, and returns one of them. Next must not mutate
// the configuration, nor keep active once it returns: the runner rewrites
// it for the next step. Returning a pid not in active is a programming
// error that the runner reports.
type Scheduler interface {
	// Next returns the pid of the process to take the next step.
	Next(c *model.Config, active []int) int
}

// Solo schedules only process Pid, producing a pid-only execution: the
// executions quantified over by solo-termination.
type Solo struct {
	// Pid is the only process allowed to take steps.
	Pid int
}

var _ Scheduler = Solo{}

// Next implements Scheduler.
func (s Solo) Next(_ *model.Config, active []int) int {
	for _, pid := range active {
		if pid == s.Pid {
			return pid
		}
	}
	// The runner treats a non-active return as "scheduler has no process
	// to run"; it will surface this as completion of the solo execution.
	return -1
}

// RoundRobin cycles through the active processes in pid order, giving each
// Quantum consecutive steps. Quantum <= 0 means 1.
type RoundRobin struct {
	// Quantum is the number of consecutive steps each process receives.
	Quantum int

	cursor int
	used   int
}

var _ Scheduler = (*RoundRobin)(nil)

// Next implements Scheduler.
func (s *RoundRobin) Next(_ *model.Config, active []int) int {
	if len(active) == 0 {
		return -1
	}
	q := s.Quantum
	if q <= 0 {
		q = 1
	}
	// Find the first active pid >= cursor; wrap around.
	pick := -1
	for _, pid := range active {
		if pid >= s.cursor {
			pick = pid
			break
		}
	}
	if pick == -1 {
		pick = active[0]
		s.used = 0
	}
	if pick != s.cursor {
		// The remembered process decided; start a fresh quantum.
		s.used = 0
		s.cursor = pick
	}
	s.used++
	if s.used >= q {
		s.cursor = pick + 1
		s.used = 0
	}
	return pick
}

// Random picks a uniformly random active process each step, from a seeded
// generator, modelling the oblivious random adversary.
type Random struct {
	rng *rand.Rand
}

var _ Scheduler = (*Random)(nil)

// NewRandom returns a Random scheduler seeded with seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Next implements Scheduler.
func (s *Random) Next(_ *model.Config, active []int) int {
	if len(active) == 0 {
		return -1
	}
	return active[s.rng.Intn(len(active))]
}

// Replay replays a fixed schedule of pids; after the schedule is
// exhausted it returns -1, ending the run. Replay is how adversaries
// constructed offline (e.g. by the lower-bound machinery) are re-executed.
type Replay struct {
	// Pids is the schedule to replay.
	Pids []int

	pos int
}

var _ Scheduler = (*Replay)(nil)

// Next implements Scheduler.
func (s *Replay) Next(_ *model.Config, active []int) int {
	for s.pos < len(s.Pids) {
		pid := s.Pids[s.pos]
		s.pos++
		for _, a := range active {
			if a == pid {
				return pid
			}
		}
		// Scheduled process already decided; skip it, as a scheduler may
		// only pick undecided processes.
	}
	return -1
}

// Restrict wraps a scheduler and restricts it to a set of processes,
// producing P-only executions. Processes outside Allowed never run.
type Restrict struct {
	// Inner produces the underlying choices.
	Inner Scheduler
	// Allowed is the set P; only these pids may be scheduled.
	Allowed []int
}

var _ Scheduler = (*Restrict)(nil)

// Next implements Scheduler.
func (s *Restrict) Next(c *model.Config, active []int) int {
	allowed := make([]int, 0, len(active))
	set := map[int]bool{}
	for _, pid := range s.Allowed {
		set[pid] = true
	}
	for _, pid := range active {
		if set[pid] {
			allowed = append(allowed, pid)
		}
	}
	if len(allowed) == 0 {
		return -1
	}
	return s.Inner.Next(c, allowed)
}

// Crash wraps a scheduler and permanently stops scheduling processes once
// they appear in Crashed, modelling crash failures: a crashed process
// simply takes no further steps, which in the asynchronous model is
// indistinguishable from being very slow.
type Crash struct {
	// Inner produces the underlying choices.
	Inner Scheduler
	// Crashed is the set of processes that take no further steps.
	Crashed map[int]bool
}

var _ Scheduler = (*Crash)(nil)

// Next implements Scheduler.
func (s *Crash) Next(c *model.Config, active []int) int {
	alive := make([]int, 0, len(active))
	for _, pid := range active {
		if !s.Crashed[pid] {
			alive = append(alive, pid)
		}
	}
	if len(alive) == 0 {
		return -1
	}
	return s.Inner.Next(c, alive)
}

// Priority always runs the lowest-priority-index active process in Order;
// processes not in Order are run last in pid order. With Order = [p], it
// behaves like Solo{p} until p decides and then lets the rest run — the
// shape of schedule used throughout the paper's constructions ("run p
// solo, then ...").
type Priority struct {
	// Order lists pids from highest priority to lowest.
	Order []int
}

var _ Scheduler = (*Priority)(nil)

// Next implements Scheduler.
func (s *Priority) Next(_ *model.Config, active []int) int {
	if len(active) == 0 {
		return -1
	}
	activeSet := map[int]bool{}
	for _, pid := range active {
		activeSet[pid] = true
	}
	for _, pid := range s.Order {
		if activeSet[pid] {
			return pid
		}
	}
	return active[0]
}

// Alternate interleaves two process groups A and B with the given period:
// A steps PeriodA times, then B steps PeriodB times, repeating. It is the
// textbook adversary against racing-counter algorithms (it keeps two
// preference groups tied), used by the liveness stress tests.
type Alternate struct {
	// A and B are the two groups.
	A, B []int
	// PeriodA and PeriodB are the group quanta; <= 0 means 1.
	PeriodA, PeriodB int

	phaseA bool
	used   int
	init   bool
}

var _ Scheduler = (*Alternate)(nil)

// Next implements Scheduler.
func (s *Alternate) Next(_ *model.Config, active []int) int {
	if !s.init {
		s.phaseA = true
		s.init = true
	}
	activeIn := func(group []int) int {
		for _, pid := range group {
			for _, a := range active {
				if a == pid {
					return pid
				}
			}
		}
		return -1
	}
	for tries := 0; tries < 2; tries++ {
		group, period := s.A, s.PeriodA
		if !s.phaseA {
			group, period = s.B, s.PeriodB
		}
		if period <= 0 {
			period = 1
		}
		if pid := activeIn(group); pid != -1 {
			s.used++
			if s.used >= period {
				s.phaseA = !s.phaseA
				s.used = 0
			}
			return pid
		}
		s.phaseA = !s.phaseA
		s.used = 0
	}
	if len(active) > 0 {
		return active[0]
	}
	return -1
}

// Describe returns a short human-readable description of well-known
// scheduler types for experiment logs.
func Describe(s Scheduler) string {
	switch t := s.(type) {
	case Solo:
		return fmt.Sprintf("solo(p%d)", t.Pid)
	case *RoundRobin:
		return fmt.Sprintf("round-robin(q=%d)", max(1, t.Quantum))
	case *Random:
		return "random"
	case *Replay:
		return fmt.Sprintf("replay(%d steps)", len(t.Pids))
	case *Priority:
		return fmt.Sprintf("priority(%v)", t.Order)
	case *Restrict:
		return fmt.Sprintf("restrict(%v, %s)", t.Allowed, Describe(t.Inner))
	case *Crash:
		return fmt.Sprintf("crash(%d down, %s)", len(t.Crashed), Describe(t.Inner))
	case *Alternate:
		return fmt.Sprintf("alternate(%v/%v)", t.A, t.B)
	default:
		return fmt.Sprintf("%T", s)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
