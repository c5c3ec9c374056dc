package model

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Config is a configuration: a value for every object and a state for
// every process. Configs are mutated in place by Apply; use Clone before
// branching, as the explorers and adversaries do.
type Config struct {
	// Objects holds the current value of each shared object.
	Objects []Value
	// States holds the local state of each process.
	States []State
}

// NewConfig returns the initial configuration of p when process pid has
// input inputs[pid]. It is the paper's "initial configuration" for that
// input assignment.
func NewConfig(p Protocol, inputs []int) (*Config, error) {
	n := p.NumProcesses()
	if len(inputs) != n {
		return nil, fmt.Errorf("model: %d inputs for %d processes", len(inputs), n)
	}
	if m := InputDomain(p); m > 0 {
		for pid, in := range inputs {
			if in < 0 || in >= m {
				return nil, fmt.Errorf("model: input %d of process %d outside [0,%d)", in, pid, m)
			}
		}
	}
	specs := p.Objects()
	c := &Config{
		Objects: make([]Value, len(specs)),
		States:  make([]State, n),
	}
	for i, s := range specs {
		c.Objects[i] = s.Init
	}
	for pid := range c.States {
		c.States[pid] = p.Init(pid, inputs[pid])
	}
	return c, nil
}

// MustNewConfig is NewConfig that panics on error; for tests and examples
// with statically-correct inputs.
func MustNewConfig(p Protocol, inputs []int) *Config {
	c, err := NewConfig(p, inputs)
	if err != nil {
		panic(err)
	}
	return c
}

// Clone returns a deep-enough copy of c: the slices are fresh, the Values
// and States are shared (they are immutable).
func (c *Config) Clone() *Config {
	out := &Config{
		Objects: make([]Value, len(c.Objects)),
		States:  make([]State, len(c.States)),
	}
	copy(out.Objects, c.Objects)
	copy(out.States, c.States)
	return out
}

// CopyFrom overwrites c's slots with src's, reusing c's slices — the
// pooled counterpart of Clone. The two configurations must have the same
// shape (object and process counts).
func (c *Config) CopyFrom(src *Config) {
	copy(c.Objects, src.Objects)
	copy(c.States, src.States)
}

// Value returns value(B_i, C), the value of object i in configuration c.
func (c *Config) Value(i int) Value { return c.Objects[i] }

// keyBufPool recycles the scratch buffers behind Key and StateKey: both
// sit on the hot path whenever exact keying is selected, so they build
// through a pooled []byte instead of fmt.Sprintf concatenation and pay
// exactly one allocation (the returned string) per call in steady state.
var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// appendStateKey appends s's canonical key bytes ("<nil>" for nil).
func appendStateKey(buf []byte, s State) []byte {
	if s == nil {
		return append(buf, "<nil>"...)
	}
	if ka, ok := s.(KeyAppender); ok {
		return ka.AppendKey(buf)
	}
	return append(buf, s.Key()...)
}

// Key returns a canonical encoding of the entire configuration, for
// hashing during exploration.
func (c *Config) Key() string {
	bp := keyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, v := range c.Objects {
		buf = appendKeyOf(buf, v)
		buf = append(buf, '|')
	}
	buf = append(buf, '#')
	for _, s := range c.States {
		buf = appendStateKey(buf, s)
		buf = append(buf, '|')
	}
	out := string(buf)
	*bp = buf
	keyBufPool.Put(bp)
	return out
}

// StateKey returns a canonical encoding of the states of the given
// processes only, used for indistinguishability checks (C ~P C').
func (c *Config) StateKey(pids []int) string {
	sorted := append([]int(nil), pids...)
	sort.Ints(sorted)
	bp := keyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, pid := range sorted {
		buf = strconv.AppendInt(buf, int64(pid), 10)
		buf = append(buf, ':')
		if s := c.States[pid]; s != nil {
			buf = appendStateKey(buf, s)
		}
		buf = append(buf, '|')
	}
	out := string(buf)
	*bp = buf
	keyBufPool.Put(bp)
	return out
}

// IndistinguishableTo reports whether c and d are indistinguishable to the
// set of processes pids: every process in pids has the same state in both
// (C ~P C' in the paper's notation).
func (c *Config) IndistinguishableTo(d *Config, pids []int) bool {
	for _, pid := range pids {
		a, b := c.States[pid], d.States[pid]
		if (a == nil) != (b == nil) {
			return false
		}
		if a != nil && a.Key() != b.Key() {
			return false
		}
	}
	return true
}

// Decided returns the decided value of process pid in c under p, if any.
func (c *Config) Decided(p Protocol, pid int) (int, bool) {
	return p.Decision(c.States[pid])
}

// DecidedValues returns the set of values decided by any process in c,
// in ascending order. k-agreement states this set has size at most k.
func (c *Config) DecidedValues(p Protocol) []int {
	seen := map[int]bool{}
	for pid := range c.States {
		if v, ok := p.Decision(c.States[pid]); ok {
			seen[v] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Active returns the processes that have not decided in c, in pid order.
func (c *Config) Active(p Protocol) []int {
	var out []int
	for pid := range c.States {
		if _, done := p.Decision(c.States[pid]); !done {
			out = append(out, pid)
		}
	}
	return out
}

// Covers reports whether process pid is poised to apply a nontrivial
// operation to object obj in c — the covering relation of the Section 2
// covering-argument discussion.
func (c *Config) Covers(p Protocol, pid, obj int) bool {
	op, ok := p.Poised(pid, c.States[pid])
	return ok && op.Object == obj && !op.Trivial()
}

// PoisedOps returns the poised operation of every process (index by pid);
// entries are nil for decided processes.
func (c *Config) PoisedOps(p Protocol) []*Op {
	out := make([]*Op, len(c.States))
	for pid := range c.States {
		if op, ok := p.Poised(pid, c.States[pid]); ok {
			opCopy := op
			out[pid] = &opCopy
		}
	}
	return out
}

// StepRecord records one step of an execution: the process, the operation
// it applied, and the response it obtained.
type StepRecord struct {
	// Pid is the process that took the step.
	Pid int
	// Op is the operation it applied.
	Op Op
	// Resp is the response the operation returned.
	Resp Value
}

// String renders the step, e.g. "p3: Swap(B1, ⟨[0,1],3⟩) → ⟨[0,0],⊥⟩".
func (s StepRecord) String() string {
	return fmt.Sprintf("p%d: %v → %v", s.Pid, s.Op, s.Resp)
}

// Apply performs the next step of process pid in configuration c of
// protocol p, mutating c, and returns the step record. It returns an error
// if pid has already decided or the poised operation is illegal for the
// target object.
func Apply(p Protocol, c *Config, pid int) (StepRecord, error) {
	st := c.States[pid]
	op, ok := p.Poised(pid, st)
	if !ok {
		return StepRecord{}, fmt.Errorf("model: process %d has decided and takes no steps", pid)
	}
	specs := p.Objects()
	if op.Object < 0 || op.Object >= len(specs) {
		return StepRecord{}, fmt.Errorf("model: process %d poised on object %d of %d", pid, op.Object, len(specs))
	}
	next, resp, err := specs[op.Object].Type.Apply(c.Objects[op.Object], op)
	if err != nil {
		return StepRecord{}, fmt.Errorf("model: process %d applying %v: %w", pid, op, err)
	}
	c.Objects[op.Object] = next
	c.States[pid] = p.Observe(pid, st, resp)
	return StepRecord{Pid: pid, Op: op, Resp: resp}, nil
}

// Replay returns the configuration the pid path leads to from start: a
// clone of start with Apply run for each pid in turn, every step checked
// the way Apply checks it. start is not mutated.
func Replay(p Protocol, start *Config, path []byte) (*Config, error) {
	c := start.Clone()
	for _, pid := range path {
		if _, err := Apply(p, c, int(pid)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Execution is a finite execution from some configuration: the sequence of
// steps taken. Together with the starting configuration it determines the
// final configuration (Cα in the paper).
type Execution []StepRecord

// History returns the execution's history: the operations with their
// processes but without responses.
func (e Execution) History() []struct {
	Pid int
	Op  Op
} {
	out := make([]struct {
		Pid int
		Op  Op
	}, len(e))
	for i, s := range e {
		out[i].Pid = s.Pid
		out[i].Op = s.Op
	}
	return out
}

// Participants returns the set of processes that take steps in e, in
// ascending pid order.
func (e Execution) Participants() []int {
	seen := map[int]bool{}
	for _, s := range e {
		seen[s.Pid] = true
	}
	out := make([]int, 0, len(seen))
	for pid := range seen {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// OnlyBy reports whether e is P-only for the process set pids.
func (e Execution) OnlyBy(pids []int) bool {
	allowed := map[int]bool{}
	for _, pid := range pids {
		allowed[pid] = true
	}
	for _, s := range e {
		if !allowed[s.Pid] {
			return false
		}
	}
	return true
}

// ObjectsAccessed returns the set of object indices accessed during e, in
// ascending order.
func (e Execution) ObjectsAccessed() []int {
	seen := map[int]bool{}
	for _, s := range e {
		seen[s.Op.Object] = true
	}
	out := make([]int, 0, len(seen))
	for obj := range seen {
		out = append(out, obj)
	}
	sort.Ints(out)
	return out
}

// ObjectsModified returns the set of object indices to which a nontrivial
// operation was applied during e, in ascending order. (A nontrivial
// operation may happen to re-install the same value; it still counts as a
// modification access, matching the paper's usage in Lemma 9.)
func (e Execution) ObjectsModified() []int {
	seen := map[int]bool{}
	for _, s := range e {
		if !s.Op.Trivial() {
			seen[s.Op.Object] = true
		}
	}
	out := make([]int, 0, len(seen))
	for obj := range seen {
		out = append(out, obj)
	}
	sort.Ints(out)
	return out
}

// StepsBy returns the number of steps process pid takes in e.
func (e Execution) StepsBy(pid int) int {
	n := 0
	for _, s := range e {
		if s.Pid == pid {
			n++
		}
	}
	return n
}

// String renders the execution one step per line.
func (e Execution) String() string {
	var b strings.Builder
	for i, s := range e {
		fmt.Fprintf(&b, "%4d  %v\n", i, s)
	}
	return b.String()
}
