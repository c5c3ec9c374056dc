package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func runRound(t *testing.T, params core.Params, inputs []int, opts core.Options) []int {
	t.Helper()
	inst, err := core.NewSetAgreement(params, opts)
	if err != nil {
		t.Fatal(err)
	}
	decided := make([]int, params.N)
	var wg sync.WaitGroup
	for pid := 0; pid < params.N; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			v, err := inst.Propose(pid, inputs[pid])
			if err != nil {
				t.Errorf("p%d: %v", pid, err)
				return
			}
			decided[pid] = v
		}(pid)
	}
	wg.Wait()
	return decided
}

func checkRound(t *testing.T, params core.Params, inputs, decided []int) {
	t.Helper()
	inputSet := map[int]bool{}
	for _, v := range inputs {
		inputSet[v] = true
	}
	decidedSet := map[int]bool{}
	for pid, v := range decided {
		decidedSet[v] = true
		if !inputSet[v] {
			t.Fatalf("validity: p%d decided %d, inputs %v", pid, v, inputs)
		}
	}
	if len(decidedSet) > params.K {
		t.Fatalf("k-agreement: %d values decided (k=%d): %v", len(decidedSet), params.K, decided)
	}
}

func TestRuntimeConsensusGoroutines(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		params := core.Params{N: n, K: 1, M: 2}
		for round := 0; round < 10; round++ {
			inputs := make([]int, n)
			for i := range inputs {
				inputs[i] = (i + round) % 2
			}
			decided := runRound(t, params, inputs, core.Options{Backoff: true, Seed: int64(round + 1)})
			checkRound(t, params, inputs, decided)
		}
	}
}

func TestRuntimeKSetGoroutines(t *testing.T) {
	for _, tc := range []core.Params{
		{N: 6, K: 2, M: 3},
		{N: 8, K: 3, M: 4},
		{N: 9, K: 4, M: 5},
	} {
		for round := 0; round < 8; round++ {
			inputs := make([]int, tc.N)
			for i := range inputs {
				inputs[i] = (i * (round + 1)) % tc.M
			}
			decided := runRound(t, tc, inputs, core.Options{Backoff: true, Seed: int64(round + 7)})
			checkRound(t, tc, inputs, decided)
		}
	}
}

func TestRuntimeSoloProposerDecidesOwnInput(t *testing.T) {
	params := core.Params{N: 4, K: 1, M: 3}
	inst, err := core.NewSetAgreement(params, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := inst.Propose(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("solo proposer decided %d, want 1 (validity)", v)
	}
}

func TestRuntimeWithoutBackoff(t *testing.T) {
	// Without backoff the algorithm is still correct whenever it
	// terminates; small n keeps contention-induced livelock improbable.
	params := core.Params{N: 3, K: 1, M: 2}
	inputs := []int{0, 1, 0}
	decided := runRound(t, params, inputs, core.Options{})
	checkRound(t, params, inputs, decided)
}

func TestRuntimeInputValidation(t *testing.T) {
	inst, err := core.NewSetAgreement(core.Params{N: 2, K: 1, M: 2}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Propose(-1, 0); err == nil {
		t.Error("negative pid accepted")
	}
	if _, err := inst.Propose(2, 0); err == nil {
		t.Error("pid out of range accepted")
	}
	if _, err := inst.Propose(0, 2); err == nil {
		t.Error("input out of domain accepted")
	}
	if _, err := inst.Propose(0, -1); err == nil {
		t.Error("negative input accepted")
	}
}

func TestRuntimeRejectsInvalidParams(t *testing.T) {
	if _, err := core.NewSetAgreement(core.Params{N: 2, K: 2, M: 2}, core.Options{}); err == nil {
		t.Error("n = k accepted")
	}
}

func TestRuntimeStatsAccumulate(t *testing.T) {
	params := core.Params{N: 4, K: 1, M: 2}
	inst, err := core.NewSetAgreement(params, core.Options{Backoff: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []int{0, 1, 1, 0}
	var wg sync.WaitGroup
	for pid := 0; pid < params.N; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			if _, err := inst.Propose(pid, inputs[pid]); err != nil {
				t.Error(err)
			}
		}(pid)
	}
	wg.Wait()
	st := inst.Stats()
	if st.Swaps.Load() == 0 {
		t.Error("no swaps recorded")
	}
	if st.Laps.Load() < int64(params.N) {
		// Every process must complete at least one conflict-free lap
		// before deciding.
		t.Errorf("laps = %d, want >= %d", st.Laps.Load(), params.N)
	}
	// Swaps are a multiple of the per-pass count for each completed pass.
	if st.Swaps.Load()%int64(params.NumObjects()) != 0 {
		t.Errorf("swap count %d not a multiple of pass length %d",
			st.Swaps.Load(), params.NumObjects())
	}
}

func TestRuntimeParamsAccessor(t *testing.T) {
	params := core.Params{N: 5, K: 2, M: 3}
	inst, err := core.NewSetAgreement(params, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Params() != params {
		t.Errorf("Params() = %+v", inst.Params())
	}
}

func TestRuntimeHighContentionManyValues(t *testing.T) {
	if testing.Short() {
		t.Skip("contention stress skipped in -short")
	}
	params := core.Params{N: 12, K: 1, M: 12}
	for round := 0; round < 5; round++ {
		inputs := make([]int, params.N)
		for i := range inputs {
			inputs[i] = i // all distinct: maximal disagreement potential
		}
		start := time.Now()
		decided := runRound(t, params, inputs, core.Options{Backoff: true, Seed: int64(round + 13)})
		checkRound(t, params, inputs, decided)
		if d := time.Since(start); d > 30*time.Second {
			t.Fatalf("round took %v", d)
		}
	}
}
