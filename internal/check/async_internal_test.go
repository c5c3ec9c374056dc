package check

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// Internal tests for the async order's termination machinery: quiescence
// edge cases that need either the stall hook (unexported) or direct
// access to the work-stealing deque. The differential suite proper lives
// in async_test.go (package check_test).

// stepSt / stepProto: a minimal n-process protocol that takes `steps`
// steps per process and then decides — its space is tiny and finite, so
// edge-case runs terminate in microseconds.
type stepSt struct{ c, cap int }

func (s stepSt) Key() string { return string(rune('a' + s.c)) }

type stepProto struct{ n, steps int }

func (p stepProto) Name() string      { return "step-proto" }
func (p stepProto) NumProcesses() int { return p.n }
func (p stepProto) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{{Type: model.SwapType{}, Init: model.Int(0)}}
}
func (p stepProto) Init(pid, input int) model.State { return stepSt{c: 0, cap: p.steps} }
func (p stepProto) Poised(pid int, st model.State) (model.Op, bool) {
	s := st.(stepSt)
	if s.c >= s.cap {
		return model.Op{}, false
	}
	return model.Op{Object: 0, Kind: model.OpSwap, Arg: model.Int(s.c)}, true
}
func (p stepProto) Observe(pid int, st model.State, resp model.Value) model.State {
	s := st.(stepSt)
	return stepSt{c: s.c + 1, cap: s.cap}
}
func (p stepProto) Decision(st model.State) (int, bool) {
	s := st.(stepSt)
	if s.c >= s.cap {
		return 0, true
	}
	return 0, false
}

func runAsyncCount(t *testing.T, p model.Protocol, inputs, pids []int, workers int) int {
	t.Helper()
	c := model.MustNewConfig(p, inputs)
	stats, err := RunFrontier(p, c, pids, ExploreLimits{MaxConfigs: 100000},
		EngineOptions{Order: OrderAsync, Workers: workers},
		func(_ int, _ *Node, _ *View) error { return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Complete {
		t.Fatalf("tiny space reported incomplete")
	}
	if stats.Async.QuiescenceScans < 1 {
		t.Fatalf("no quiescence scan on a completed run")
	}
	return stats.Processed
}

// TestAsyncQuiesceEmptyStartFrontier: an empty pid set means the root has
// no successors at all — the run must terminate after visiting just the
// root, with every worker idling from its first iteration.
func TestAsyncQuiesceEmptyStartFrontier(t *testing.T) {
	p := stepProto{n: 3, steps: 2}
	if got := runAsyncCount(t, p, []int{0, 0, 0}, nil, 4); got != 1 {
		t.Errorf("visited %d, want 1 (root only)", got)
	}
}

// TestAsyncQuiesceSingleStateGraph: every process starts decided (zero
// steps), so each expansion generates zero successors — the single-state
// graph where the outstanding counter drops straight from 1 to 0.
func TestAsyncQuiesceSingleStateGraph(t *testing.T) {
	p := stepProto{n: 3, steps: 0}
	if got := runAsyncCount(t, p, []int{0, 0, 0}, []int{0, 1, 2}, 4); got != 1 {
		t.Errorf("visited %d, want 1 (all processes decided at the root)", got)
	}
}

// TestAsyncQuiesceMoreWorkersThanWork: workers far in excess of the
// space keep stealing from (and idling against) each other without
// deadlocking or double-visiting.
func TestAsyncQuiesceMoreWorkersThanWork(t *testing.T) {
	p := stepProto{n: 2, steps: 1}
	want := runAsyncCount(t, p, []int{0, 0}, []int{0, 1}, 1)
	if got := runAsyncCount(t, p, []int{0, 0}, []int{0, 1}, 8); got != want {
		t.Errorf("visited %d with 8 workers, %d with 1", got, want)
	}
}

// TestAsyncQuiesceStalledWorkerMidSteal: a worker that goes to sleep
// right before its steal sweep — while its inbox may hold admitted,
// unstealable work — must not let the others declare quiescence early:
// its units stay on the outstanding counter until it resumes. The run
// must still terminate with the full visited count.
func TestAsyncQuiesceStalledWorkerMidSteal(t *testing.T) {
	p := stepProto{n: 4, steps: 3}
	inputs := []int{0, 0, 0, 0}
	pids := []int{0, 1, 2, 3}
	want := runAsyncCount(t, p, inputs, pids, 1)

	var stalls atomic.Int64
	asyncStallHook = func(worker int) {
		if worker == 1 && stalls.Add(1) <= 3 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	defer func() { asyncStallHook = nil }()

	for round := 0; round < 3; round++ {
		stalls.Store(0)
		if got := runAsyncCount(t, p, inputs, pids, 4); got != want {
			t.Errorf("round %d: visited %d with a stalled worker, want %d", round, got, want)
		}
	}
}

// TestWSDequeOwnerOps: single-threaded push/take LIFO behavior, a node at
// a time and half the deque at once.
func TestWSDequeOwnerOps(t *testing.T) {
	d := &wsDeque{}
	one := make([]*Node, 1)
	if d.take(one) != 0 {
		t.Fatal("take on empty deque returned a node")
	}
	nodes := make([]*Node, 1000)
	for i := range nodes {
		nodes[i] = &Node{Depth: i}
		d.push(nodes[i])
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		if d.take(one) != 1 || one[0].Depth != i {
			t.Fatalf("take %d: got %v", i, one[0])
		}
	}
	if d.take(one) != 0 || !d.empty() {
		t.Fatal("deque not empty after draining")
	}
	// Nine nodes: a chunk takes the newest five, a thief the oldest.
	d.push(nodes[:9]...)
	chunk := make([]*Node, asyncChunk)
	if m := d.take(chunk); m != 5 || chunk[0].Depth != 8 || chunk[4].Depth != 4 {
		t.Fatalf("half take: %d nodes, first %v, last %v; want 5, depths 8 down to 4", m, chunk[0], chunk[m-1])
	}
	if n := d.steal(); n == nil || n.Depth != 0 {
		t.Fatalf("steal: got %v, want the oldest node", n)
	}
}

// TestWSDequeConcurrentSteals: one owner pushes and takes while thieves
// steal; every node must be taken exactly once. Run under -race this also
// checks that every access is under the lock.
func TestWSDequeConcurrentSteals(t *testing.T) {
	const total = 20000
	d := &wsDeque{}
	var taken sync.Map
	var count atomic.Int64
	record := func(n *Node, by string) {
		if prev, dup := taken.LoadOrStore(n.Depth, by); dup {
			t.Errorf("node %d taken twice (%s and %s)", n.Depth, prev, by)
		}
		count.Add(1)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for th := 0; th < 3; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n := d.steal(); n != nil {
					record(n, "thief")
					continue
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	chunk := make([]*Node, 4)
	ownerTake := func() int {
		m := d.take(chunk)
		for _, n := range chunk[:m] {
			record(n, "owner")
		}
		return m
	}
	for i := 0; i < total; i++ {
		d.push(&Node{Depth: i})
		if i%3 == 0 {
			ownerTake()
		}
	}
	for ownerTake() > 0 {
	}
	close(done)
	wg.Wait()
	if !d.empty() {
		t.Fatal("deque not empty after the owner drained it")
	}
	if got := count.Load(); got != total {
		t.Fatalf("took %d nodes, pushed %d", got, total)
	}
}
