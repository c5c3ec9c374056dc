package check_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
)

// --- The reduction differential suite ---
//
// Correctness of the reduction layer is enforced differentially: for
// every protocol behind a Table 1 row (and the symmetric controls), on
// both state stores, the reduced and unreduced engines must agree on
// decided-value sets, valency classes, violation existence and
// obstruction-freedom verdicts. Depth caps make each comparison exact:
// a depth-capped BFS visits ALL configurations within the cap, so the
// reduced run must see exactly the orbit quotient of the unreduced
// visited set — any divergence in a verdict is a soundness bug, not a
// budget artifact (the tests assert the configuration budget never
// binds).

// reduceCase is one differential instance: a protocol with inputs, the
// agreement parameter, and a depth cap that keeps the comparison exact
// on protocols with unbounded spaces.
type reduceCase struct {
	name     string
	p        model.Protocol
	inputs   []int
	k        int
	maxDepth int
}

// reduceCases covers the protocol behind every Table 1 row (rows 3-4 are
// bound arithmetic with no protocol instance) plus the symmetric
// controls where the quotient genuinely bites.
func reduceCases(t *testing.T) []reduceCase {
	t.Helper()
	racing, err := baseline.NewRacingCounters(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	readable, err := baseline.NewReadableRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rks, err := baseline.NewRegisterKSet(4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	toybit, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairing, err := baseline.NewPairing(4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []reduceCase{
		// Table 1 row 1: Consensus / Registers.
		{"consensus-registers", racing, []int{0, 1, 0}, 1, 6},
		// Row 2: Consensus / Swap (Algorithm 1; declares no symmetry, so
		// sym must be a sound no-op).
		{"consensus-swap", core.MustNew(core.Params{N: 4, K: 1, M: 2}), []int{0, 1, 1, 0}, 1, 5},
		// Row 5: Consensus / Readable swap, unbounded.
		{"consensus-readable-unbounded", readable, []int{0, 1, 1}, 1, 6},
		// Row 6: k-set / Registers.
		{"kset-registers", rks, []int{0, 1, 2, 0}, 2, 6},
		// Row 7: k-set / Swap.
		{"kset-swap", core.MustNew(core.Params{N: 4, K: 2, M: 3}), []int{0, 1, 2, 0}, 2, 5},
		// Row 8: k-set / Readable swap.
		{"kset-readable", core.MustNew(core.Params{N: 4, K: 2, M: 3, Readable: true}), []int{0, 1, 2, 0}, 2, 4},
		// Symmetric controls: anonymous protocols with declared classes.
		{"toybit", toybit, []int{0, 1, 0, 1}, 1, 10},
		{"pairing", pairing, []int{0, 1, 1, 0}, 2, 0}, // finite space, no cap needed
		{"pair-overloaded", baseline.NewPairConsensus(2).WithProcesses(3), []int{0, 1, 1}, 1, 0},
	}
}

// TestReduceDifferentialExplore: none vs sym × {mem, spill} agree on
// decided values, violation existence and completeness; sym never visits
// more than none.
func TestReduceDifferentialExplore(t *testing.T) {
	const budget = 300000
	for _, tc := range reduceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			pids := make([]int, tc.p.NumProcesses())
			for i := range pids {
				pids[i] = i
			}
			c := model.MustNewConfig(tc.p, tc.inputs)
			limits := check.ExploreLimits{MaxConfigs: budget, MaxDepth: tc.maxDepth}

			type key struct{ mode, store string }
			results := map[key]*check.ExploreResult{}
			for _, mode := range []string{check.ReduceNone, check.ReduceSym} {
				for _, store := range []string{check.StoreMem, check.StoreSpill} {
					res, err := check.ExploreOpts(tc.p, c, pids, tc.k, check.ExploreOptions{
						Limits: limits,
						Engine: check.EngineOptions{Reduction: mode, Store: store},
					})
					if err != nil {
						t.Fatalf("%s/%s: %v", mode, store, err)
					}
					if res.Visited >= budget {
						t.Fatalf("%s/%s: budget bound (%d visited); the differential needs an exact depth-capped space", mode, store, res.Visited)
					}
					results[key{mode, store}] = res
				}
			}

			base := results[key{check.ReduceNone, check.StoreMem}]
			for k, res := range results {
				if !reflect.DeepEqual(res.DecidedValues, base.DecidedValues) {
					t.Errorf("%v: decided %v, unreduced %v", k, res.DecidedValues, base.DecidedValues)
				}
				if (res.AgreementViolation != nil) != (base.AgreementViolation != nil) {
					t.Errorf("%v: violation existence %v, unreduced %v", k, res.AgreementViolation != nil, base.AgreementViolation != nil)
				}
				if res.MaxDecidedTogether != base.MaxDecidedTogether {
					t.Errorf("%v: max decided together %d, unreduced %d", k, res.MaxDecidedTogether, base.MaxDecidedTogether)
				}
				if res.Complete != base.Complete {
					t.Errorf("%v: complete %v, unreduced %v", k, res.Complete, base.Complete)
				}
				if res.Visited > base.Visited {
					t.Errorf("%v: visited %d > unreduced %d", k, res.Visited, base.Visited)
				}
			}
			// Stores agree per mode.
			for _, mode := range []string{check.ReduceNone, check.ReduceSym} {
				if m, s := results[key{mode, check.StoreMem}], results[key{mode, check.StoreSpill}]; m.Visited != s.Visited {
					t.Errorf("%s: mem visited %d, spill visited %d", mode, m.Visited, s.Visited)
				}
			}
			// A protocol that declares no symmetry must run unquotiented.
			if model.SymmetryClasses(tc.p) == nil {
				if v := results[key{check.ReduceSym, check.StoreMem}].Visited; v != base.Visited {
					t.Errorf("asymmetric protocol: sym visited %d != unreduced %d", v, base.Visited)
				}
			}
		})
	}
}

// TestReduceDifferentialValency: valency classifications agree across
// modes and stores on the same depth-capped instances.
func TestReduceDifferentialValency(t *testing.T) {
	for _, tc := range reduceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			pids := make([]int, tc.p.NumProcesses())
			for i := range pids {
				pids[i] = i
			}
			c := model.MustNewConfig(tc.p, tc.inputs)
			limits := check.ExploreLimits{MaxConfigs: 300000, MaxDepth: tc.maxDepth}

			var base *check.ValencyResult
			for _, mode := range []string{check.ReduceNone, check.ReduceSym} {
				for _, store := range []string{check.StoreMem, check.StoreSpill} {
					res := classifyT(t, tc.p, c, pids, check.ExploreOptions{
						Limits: limits,
						Engine: check.EngineOptions{Reduction: mode, Store: store},
					})
					if base == nil {
						base = res
						continue
					}
					if res.Class != base.Class || !reflect.DeepEqual(res.Values, base.Values) {
						t.Errorf("%s/%s: valency %v %v, unreduced %v %v", mode, store, res.Class, res.Values, base.Class, base.Values)
					}
				}
			}
		})
	}
}

// TestReduceDifferentialObstruction: the obstruction-freedom verdict
// agrees between none and sym; the solo-run structure is orbit-invariant.
func TestReduceDifferentialObstruction(t *testing.T) {
	toybit, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		p         model.Protocol
		inputs    []int
		soloBound int
	}{
		{"pair", baseline.NewPairConsensus(2), []int{0, 1}, 2},
		{"toybit", toybit, []int{0, 1, 0}, 5},
		{"alg1", core.MustNew(core.Params{N: 3, K: 1, M: 2}), []int{0, 1, 1}, 8 * 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := func(mode string) check.ExploreOptions {
				return check.ExploreOptions{
					Limits: check.ExploreLimits{MaxConfigs: 20000, MaxDepth: 6},
					Engine: check.EngineOptions{Reduction: mode},
				}
			}
			base, baseErr := check.CheckObstructionFreeOpts(tc.p, tc.inputs, opts(check.ReduceNone), tc.soloBound)
			sym, symErr := check.CheckObstructionFreeOpts(tc.p, tc.inputs, opts(check.ReduceSym), tc.soloBound)
			// The verdict — obstruction-free within the bound or not — must
			// agree; a violated bound (toybit's tight bound is one, by
			// design) is itself a verdict both modes must reach.
			if (baseErr == nil) != (symErr == nil) {
				t.Fatalf("verdicts differ: unreduced err=%v, sym err=%v", baseErr, symErr)
			}
			if base == nil || sym == nil {
				// Reports are nil only for usage errors, which these fixed
				// instances cannot produce.
				t.Fatalf("usage error: unreduced %v, sym %v", baseErr, symErr)
			}
			if base.MaxSoloSteps != sym.MaxSoloSteps {
				t.Errorf("max solo steps: unreduced %d, sym %d (orbit-invariant quantity)", base.MaxSoloSteps, sym.MaxSoloSteps)
			}
			if sym.Configurations > base.Configurations {
				t.Errorf("sym checked %d configurations > unreduced %d", sym.Configurations, base.Configurations)
			}
		})
	}
}

// TestReduceDeterministicAcrossWorkers: reduced explorations are
// worker-count-independent in everything the engine promises — visited
// counts, decided sets and completeness. The pruning counters are
// diagnostics over the concrete orbit representatives (admission-order
// dependent under parallelism, see ReductionStats), so the quotiented
// instance only asserts they stay nonzero.
func TestReduceDeterministicAcrossWorkers(t *testing.T) {
	p, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := model.MustNewConfig(p, []int{0, 1, 0, 1})
	pids := []int{0, 1, 2, 3}
	for _, mode := range []string{check.ReduceSym} {
		var base *check.ExploreResult
		for _, workers := range []int{1, 2, 4} {
			res, err := check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{
				Limits: check.ExploreLimits{MaxConfigs: 200000},
				Engine: check.EngineOptions{Reduction: mode, Workers: workers},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Reduction.StatesPruned == 0 {
				t.Errorf("%s workers=%d: no pruning on a symmetric instance", mode, workers)
			}
			if base == nil {
				base = res
				continue
			}
			if res.Visited != base.Visited || !reflect.DeepEqual(res.DecidedValues, base.DecidedValues) ||
				res.Complete != base.Complete {
				t.Errorf("%s workers=%d: visited=%d decided=%v complete=%v diverges from workers=1 (%d, %v, %v)",
					mode, workers, res.Visited, res.DecidedValues, res.Complete,
					base.Visited, base.DecidedValues, base.Complete)
			}
		}
	}
}

// TestReducePrefilterOnSpilledRun: a forced-spill exploration still
// matches the in-memory result, and the Bloom prefilter reports the
// duplicate suspects it routed to the exact run probes.
func TestReducePrefilterOnSpilledRun(t *testing.T) {
	p, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := model.MustNewConfig(p, []int{0, 1, 0, 1})
	pids := []int{0, 1, 2, 3}
	limits := check.ExploreLimits{MaxConfigs: 200000}

	mem, err := check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	spill, err := check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{
		Limits: limits,
		Engine: check.EngineOptions{Store: check.StoreSpill, MemBudget: 32 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spill.Visited != mem.Visited || !reflect.DeepEqual(spill.DecidedValues, mem.DecidedValues) {
		t.Fatalf("spill run diverged: %d/%v vs %d/%v", spill.Visited, spill.DecidedValues, mem.Visited, mem.DecidedValues)
	}
	if spill.Store.RunsWritten == 0 {
		t.Fatal("budget did not force spills; the prefilter was never exercised")
	}
	if spill.Store.PrefilterHits == 0 {
		t.Error("prefilter_hits = 0 on a run with re-encountered spilled fingerprints")
	}
}

// TestReduceObstructionModes: the obstruction check takes the symmetry
// quotient, and "sym+sleep" — once rejected there — as its synonym, to the
// same report. (The engine-level mode conflicts are walked by
// TestModeMatrix.)
func TestReduceObstructionModes(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	report := func(mode string) *check.ObstructionFreeReport {
		r, err := check.CheckObstructionFreeOpts(p, []int{0, 1}, check.ExploreOptions{
			Engine: check.EngineOptions{Reduction: mode}}, 4)
		if err != nil {
			t.Fatalf("obstruction check rejected reduction %q: %v", mode, err)
		}
		return r
	}
	if sym, syn := report(check.ReduceSym), report(check.ReduceSymSleep); !reflect.DeepEqual(sym, syn) {
		t.Errorf("sym+sleep reports %+v, sym %+v", syn, sym)
	}
}

// loopProto is a deliberately cyclic, maximally duplicate-heavy
// protocol: each process alternates between swapping a 1 and a 0 into
// the shared object, so configurations recur at many different depths —
// the cross-level duplicate path is exercised on every level rather than
// incidentally.
type loopProto struct{ n int }

type loopSt struct{ bit int }

func (s loopSt) Key() string { return fmt.Sprintf("loop%d", s.bit) }

func (p loopProto) Name() string      { return "loop-proto" }
func (p loopProto) NumProcesses() int { return p.n }
func (p loopProto) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{
		{Type: model.SwapType{}, Init: model.Int(0)},
		{Type: model.SwapType{}, Init: model.Int(0)},
	}
}
func (p loopProto) Init(pid, input int) model.State { return loopSt{bit: input} }
func (p loopProto) Poised(pid int, st model.State) (model.Op, bool) {
	s := st.(loopSt)
	return model.Op{Object: s.bit % 2, Kind: model.OpSwap, Arg: model.Int(s.bit)}, true
}
func (p loopProto) Observe(pid int, st model.State, resp model.Value) model.State {
	return loopSt{bit: 1 - st.(loopSt).bit}
}
func (p loopProto) Decision(st model.State) (int, bool) { return 0, false }

// SymmetryClasses: the protocol is anonymous (nothing branches on pid),
// so the quotient applies too.
func (p loopProto) SymmetryClasses() [][]int { return model.SingleClass(p.n) }

// TestReduceSleepOnCyclicGraph: on a space where states recur at many
// depths, the quotient never visits more than the unreduced run at any
// depth cap. (The name is historical: the test once also held sleep-set
// pruning, since deleted, to the quotient's count.)
func TestReduceSleepOnCyclicGraph(t *testing.T) {
	p := loopProto{n: 3}
	c := model.MustNewConfig(p, []int{0, 1, 0})
	pids := []int{0, 1, 2}
	for _, depth := range []int{2, 4, 7} {
		limits := check.ExploreLimits{MaxConfigs: 100000, MaxDepth: depth}
		base, err := check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{Limits: limits})
		if err != nil {
			t.Fatal(err)
		}
		sym, err := check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{
			Limits: limits, Engine: check.EngineOptions{Reduction: check.ReduceSym}})
		if err != nil {
			t.Fatal(err)
		}
		if sym.Visited > base.Visited {
			t.Errorf("depth %d: quotient visited %d > unreduced %d", depth, sym.Visited, base.Visited)
		}
	}
}

// TestExhaustiveOrbitCount pins an exhaustive quotient exploration big
// enough to have exposed lost states: the toy-bit race at n=5 over 2
// bits, inputs i mod 2, has 90,488 orbit states, all of which every legal
// order × reduction × store × workers cell must visit, reporting the
// space complete and both values decided. (The n <= 4 instances of the
// differential suites, 17,263 states, never showed the since-deleted
// async × sleep-set pairing visiting 90,481–90,486 of these and calling
// that complete.) The pairing check.ModeConflicts took from the async order
// here must answer this instance with ErrIncompatibleModes, not with a
// count.
func TestExhaustiveOrbitCount(t *testing.T) {
	const orbitStates = 90488
	p, err := baseline.NewToyBitRace(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := model.MustNewConfig(p, []int{0, 1, 0, 1, 0})
	pids := []int{0, 1, 2, 3, 4}
	explore := func(eng check.EngineOptions) (*check.ExploreResult, error) {
		if eng.Store == check.StoreSpill {
			eng.MemBudget = 64 << 10 // small: the visited set really spills
		}
		return check.ExploreOpts(p, c, pids, 0, check.ExploreOptions{
			Limits: check.ExploreLimits{MaxConfigs: 1000000}, Engine: eng})
	}
	cells := []check.EngineOptions{{Order: check.OrderAsync, Reduction: check.ReduceSym}}
	for _, store := range []string{check.StoreMem, check.StoreSpill} {
		cells = append(cells, check.EngineOptions{Reduction: check.ReduceSym, Store: store})
	}
	workerCounts := []int{1, 2, 4}
	if testing.Short() {
		workerCounts = []int{2}
	}
	for _, cell := range cells {
		for _, workers := range workerCounts {
			cell.Workers = workers
			name := fmt.Sprintf("order=%q reduce=%s store=%q workers=%d", cell.Order, cell.Reduction, cell.Store, workers)
			res, err := explore(cell)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Visited != orbitStates || !res.Complete || !reflect.DeepEqual(res.DecidedValues, []int{0, 1}) {
				t.Errorf("%s: visited %d (complete %t) deciding %v, want %d (complete) deciding [0 1]",
					name, res.Visited, res.Complete, res.DecidedValues, orbitStates)
			}
		}
	}
	cell := check.EngineOptions{Order: check.OrderAsync, Reduction: check.ReduceSym, Store: check.StoreSpill}
	if res, err := explore(cell); !errors.Is(err, check.ErrIncompatibleModes) {
		t.Errorf("order=%q reduce=%s store=%q: result %+v, err = %v, want ErrIncompatibleModes", cell.Order, cell.Reduction, cell.Store, res, err)
	}
}
