package lowerbound_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/model"
)

// TestWitnessDeterministicAcrossWorkers: every search in lowerbound runs on
// the parallel frontier engine; what it returns — witness schedules
// included — must not depend on the worker count, the keying mode or the
// store's budget. The literal results pin the order a class's smallest
// node is picked by, (depth, fingerprint, key), and the provenance
// tie-break (among one level's claims of a state, the smallest (parent
// fingerprint, parent key, pid) wins) on instances where several claims
// tie.
func TestWitnessDeterministicAcrossWorkers(t *testing.T) {
	toyBit, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	toyBit3, err := baseline.NewToyBitRace(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	violation := func(p model.Protocol, inputs []int) func(lowerbound.SearchLimits) (any, error) {
		return func(l lowerbound.SearchLimits) (any, error) {
			return lowerbound.FindAgreementViolation(p, inputs, 1, l)
		}
	}
	// Lemma 13 from a configuration in which the block swap by S = {2, 3}
	// leaves Q = {0, 1} univalent: γ comes from the third level, after
	// all seven configurations of the first three were tried.
	l13Start := model.MustNewConfig(toyBit, []int{0, 1, 1, 0})
	for _, pid := range []int{0, 1, 2} {
		if _, err := model.Apply(toyBit, l13Start, pid); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		search func(lowerbound.SearchLimits) (any, error)
		want   any // nil: whatever one worker finds
	}{
		{"pair consensus, 3 processes", violation(baseline.NewPairConsensus(2).WithProcesses(3), []int{0, 1, 1}), nil},
		{"toy-bit race n=4", violation(toyBit, []int{0, 1, 0, 1}),
			&lowerbound.Witness{Schedule: []int{0, 0, 0, 1, 0, 1, 1, 1}, Decided: []int{0, 1}, Visited: 1917}},
		{"pair consensus, 4 processes", violation(baseline.NewPairConsensus(2).WithProcesses(4), []int{0, 1, 1, 0}),
			&lowerbound.Witness{Schedule: []int{2, 3, 0}, Decided: []int{0, 1}, Visited: 35}},
		{"ProveBivalent", func(l lowerbound.SearchLimits) (any, error) {
			return lowerbound.ProveBivalent(toyBit, model.MustNewConfig(toyBit, []int{0, 1, 1, 0}), []int{0, 1}, l)
		}, &lowerbound.BivalenceCertificate{Schedules: [2][]int{{0, 0, 0, 0}, {1, 1, 1, 1}}, Values: [2]int{0, 1}}},
		{"CoveringScan (budget-bound)", func(l lowerbound.SearchLimits) (any, error) {
			l.MaxConfigs = 20000
			return lowerbound.CoveringScan(toyBit3, []int{0, 1, 0, 1}, l)
		}, &lowerbound.CoveringScanResult{MaxCovered: 3, Schedule: []int{3, 3, 2}, CoverMap: map[int]int{0: 0, 1: 2, 2: 3}, Visited: 20000}},
		{"Lemma13Gamma", func(l lowerbound.SearchLimits) (any, error) {
			l.MaxConfigs = 3000
			return lowerbound.Lemma13Gamma(toyBit, l13Start, []int{0, 1}, []int{2, 3}, l, l)
		}, &lowerbound.Lemma13Result{Gamma: []int{0, 0}, Tried: 7, Bivalence: &lowerbound.BivalenceCertificate{
			Schedules: [2][]int{{1, 1, 1, 1, 1, 1, 1}, {0, 0, 0, 0, 0}}, Values: [2]int{0, 1}}}},
	} {
		base, err := tc.search(lowerbound.SearchLimits{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if reflect.ValueOf(base).IsNil() {
			t.Fatalf("%s: nothing found", tc.name)
		}
		if tc.want != nil && !reflect.DeepEqual(base, tc.want) {
			t.Errorf("%s: found %+v, want %+v", tc.name, base, tc.want)
		}
		for _, limits := range []lowerbound.SearchLimits{
			{Workers: 2},
			{Workers: 4},
			{Workers: 1, Fingerprints: true},
			{Workers: 4, Fingerprints: true},
			{Workers: 1, Store: "spill", MemBudget: 16 << 10},
			{Workers: 2, Store: "spill", MemBudget: 16 << 10},
			{Workers: 4, Store: "spill", MemBudget: 16 << 10},
		} {
			got, err := tc.search(limits)
			if err != nil {
				t.Fatalf("%s %+v: %v", tc.name, limits, err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("%s %+v: found %+v, differs from workers=1 (%+v)", tc.name, limits, got, base)
			}
		}
	}
}

// TestWitnessScheduleReplays: the returned schedule is a real execution
// ending in a configuration that decides exactly the reported values.
func TestWitnessScheduleReplays(t *testing.T) {
	p := baseline.NewPairConsensus(2).WithProcesses(3)
	inputs := []int{0, 1, 1}
	w, err := lowerbound.FindAgreementViolation(p, inputs, 1, lowerbound.SearchLimits{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("expected a witness")
	}
	c := model.MustNewConfig(p, inputs)
	for i, pid := range w.Schedule {
		if _, err := model.Apply(p, c, pid); err != nil {
			t.Fatalf("step %d (p%d): %v", i, pid, err)
		}
	}
	if got := c.DecidedValues(p); !reflect.DeepEqual(got, w.Decided) {
		t.Fatalf("replayed schedule decides %v, witness claims %v", got, w.Decided)
	}
	if len(w.Decided) <= 1 {
		t.Fatalf("witness decided %v, want an agreement violation (k=1)", w.Decided)
	}
}

// TestSearchesHonourCancelledContext: a search handed an already-cancelled
// SearchLimits.Ctx returns the context's error instead of a result.
func TestSearchesHonourCancelledContext(t *testing.T) {
	toyBit, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	limits := lowerbound.SearchLimits{Ctx: ctx, Workers: 2}
	c := model.MustNewConfig(toyBit, []int{0, 1, 1, 0})
	for name, search := range map[string]func() (any, error){
		"ProveBivalent": func() (any, error) { return lowerbound.ProveBivalent(toyBit, c, []int{0, 1}, limits) },
		"CoveringScan":  func() (any, error) { return lowerbound.CoveringScan(toyBit, []int{0, 1, 1, 0}, limits) },
		"Lemma13Gamma": func() (any, error) {
			return lowerbound.Lemma13Gamma(toyBit, c, []int{0, 1}, []int{2}, limits, limits)
		},
	} {
		if got, err := search(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: returned %+v, %v; want context.Canceled", name, got, err)
		}
	}
}

// TestCoveringScanBudgetBoundVisitsMaxConfigs: a scan the budget cuts short
// reports exactly MaxConfigs visited configurations, as every other engine
// search does.
func TestCoveringScanBudgetBoundVisitsMaxConfigs(t *testing.T) {
	toyBit, err := baseline.NewToyBitRace(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int{1, 100, 5000} {
		res, err := lowerbound.CoveringScan(toyBit, []int{0, 1, 0, 1}, lowerbound.SearchLimits{MaxConfigs: max, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Visited != max {
			t.Errorf("MaxConfigs %d: Visited = %d, want %d", max, res.Visited, max)
		}
	}
}

// TestExploreViolationIsSearchWitness: ExploreOpts' agreement violation
// and FindAgreementViolation's witness are picked by one rule, the
// smallest violating node by (depth, fingerprint, key), so the schedule
// the search returns replays to the configuration the explorer reports,
// at every worker count.
func TestExploreViolationIsSearchWitness(t *testing.T) {
	toyBit3, err := baseline.NewToyBitRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	toyBit4, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20000
	for _, tc := range []struct {
		name   string
		p      model.Protocol
		inputs []int
	}{
		{"pair consensus, 3 processes", baseline.NewPairConsensus(2).WithProcesses(3), []int{0, 1, 1}},
		{"toy-bit race n=3", toyBit3, []int{0, 1, 0}},
		{"toy-bit race n=4", toyBit4, []int{0, 1, 0, 1}},
		{"ablation margin=1 n=3", core.MustNew(core.Params{N: 3, K: 1, M: 2, Ablation: core.Ablation{Margin: 1}}), []int{0, 1, 0}},
	} {
		for _, workers := range []int{1, 4} {
			start := model.MustNewConfig(tc.p, tc.inputs)
			pids := make([]int, len(tc.inputs))
			for i := range pids {
				pids[i] = i
			}
			res, err := check.ExploreOpts(tc.p, start, pids, 1, check.ExploreOptions{
				Limits: check.ExploreLimits{MaxConfigs: budget},
				Engine: check.EngineOptions{Workers: workers},
			})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", tc.name, workers, err)
			}
			w, err := lowerbound.FindAgreementViolation(tc.p, tc.inputs, 1,
				lowerbound.SearchLimits{MaxConfigs: budget, Workers: workers})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", tc.name, workers, err)
			}
			if res.AgreementViolation == nil || w == nil {
				t.Fatalf("%s, %d workers: explorer violation %v, search witness %v; want both", tc.name, workers,
					res.AgreementViolation, w)
			}
			path := make([]byte, len(w.Schedule))
			for i, pid := range w.Schedule {
				path[i] = byte(pid)
			}
			end, err := model.Replay(tc.p, start, path)
			if err != nil {
				t.Fatal(err)
			}
			if end.Key() != res.AgreementViolation.Key() {
				t.Errorf("%s, %d workers: schedule %v replays to\n%s\nexplorer reports\n%s", tc.name, workers,
					w.Schedule, end.Key(), res.AgreementViolation.Key())
			}
		}
	}
}
