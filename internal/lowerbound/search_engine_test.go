package lowerbound_test

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/lowerbound"
	"repro/internal/model"
)

// TestWitnessDeterministicAcrossWorkers: the schedule searches run on the
// parallel frontier engine; the witness they return — schedule included —
// must not depend on the worker count, the keying mode or the store's
// budget. The literal schedules pin the provenance tie-break (among one
// level's claims of a state, the smallest (parent fingerprint, parent key,
// pid) wins) on instances where several claims tie.
func TestWitnessDeterministicAcrossWorkers(t *testing.T) {
	toyBit, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		p        model.Protocol
		inputs   []int
		schedule []int // nil: whatever one worker finds
		decided  []int
	}{
		{"pair consensus, 3 processes", baseline.NewPairConsensus(2).WithProcesses(3), []int{0, 1, 1}, nil, nil},
		{"toy-bit race n=4", toyBit, []int{0, 1, 0, 1}, []int{0, 0, 0, 1, 0, 1, 1, 1}, []int{0, 1}},
		{"pair consensus, 4 processes", baseline.NewPairConsensus(2).WithProcesses(4), []int{0, 1, 1, 0}, []int{2, 3, 0}, []int{0, 1}},
	} {
		base, err := lowerbound.FindAgreementViolation(tc.p, tc.inputs, 1, lowerbound.SearchLimits{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			t.Fatalf("%s: the run must violate agreement", tc.name)
		}
		if tc.schedule != nil && (!reflect.DeepEqual(base.Schedule, tc.schedule) || !reflect.DeepEqual(base.Decided, tc.decided)) {
			t.Errorf("%s: witness %v deciding %v, want %v deciding %v", tc.name, base.Schedule, base.Decided, tc.schedule, tc.decided)
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
			w, err := lowerbound.FindAgreementViolation(tc.p, tc.inputs, 1, limits)
			if err != nil {
				t.Fatal(err)
			}
			if w == nil {
				t.Fatalf("%s %+v: no witness found", tc.name, limits)
			}
			if !reflect.DeepEqual(w.Schedule, base.Schedule) || !reflect.DeepEqual(w.Decided, base.Decided) {
				t.Errorf("%s %+v: witness (%v deciding %v) differs from workers=1 (%v deciding %v)",
					tc.name, limits, w.Schedule, w.Decided, base.Schedule, base.Decided)
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
