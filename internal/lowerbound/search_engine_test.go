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
// must not depend on the worker count, the shard count, or the keying
// mode.
func TestWitnessDeterministicAcrossWorkers(t *testing.T) {
	p := baseline.NewPairConsensus(2).WithProcesses(3)
	inputs := []int{0, 1, 1}

	base, err := lowerbound.FindAgreementViolation(p, inputs, 1, lowerbound.SearchLimits{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base == nil {
		t.Fatal("3 processes on one swap object must violate agreement")
	}
	for _, limits := range []lowerbound.SearchLimits{
		{Workers: 2},
		{Workers: 4},
		{Workers: 4, Fingerprints: true},
	} {
		w, err := lowerbound.FindAgreementViolation(p, inputs, 1, limits)
		if err != nil {
			t.Fatal(err)
		}
		if w == nil {
			t.Fatalf("%+v: no witness found", limits)
		}
		if !reflect.DeepEqual(w.Schedule, base.Schedule) || !reflect.DeepEqual(w.Decided, base.Decided) {
			t.Errorf("%+v: witness (%v deciding %v) differs from workers=1 (%v deciding %v)",
				limits, w.Schedule, w.Decided, base.Schedule, base.Decided)
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
