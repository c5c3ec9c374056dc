package model_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
)

// mustToyBit builds the anonymous toy-bit race, the fully symmetric
// protocol the canonicalization tests drive.
func mustToyBit(t testing.TB, n, bits int) model.Protocol {
	t.Helper()
	p, err := baseline.NewToyBitRace(n, bits)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// applyPerm turns fuzz bytes into a permutation of 0..n-1 (Fisher–Yates
// driven by the bytes, identity when they run out).
func permFromBytes(n int, raw []byte) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0 && len(raw) > 0; i-- {
		j := int(raw[0]) % (i + 1)
		raw = raw[1:]
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// TestCanonicalSlotFingerprintInvariance: permuting process states within
// the declared class never changes the canonical fingerprint.
func TestCanonicalSlotFingerprintInvariance(t *testing.T) {
	p := mustToyBit(t, 4, 2)
	classes := model.SymmetryClasses(p)
	if len(classes) != 1 || len(classes[0]) != 4 {
		t.Fatalf("toybit symmetry classes = %v, want one class of 4", classes)
	}
	c := model.MustNewConfig(p, []int{0, 1, 0, 1})
	for _, pid := range []int{0, 1, 2, 3, 0, 1, 0} {
		if _, err := model.Apply(p, c, pid); err != nil {
			t.Fatal(err)
		}
	}
	want := c.CanonicalSlotFingerprint(classes)
	perms := [][]int{
		{1, 0, 2, 3},
		{3, 2, 1, 0},
		{2, 3, 0, 1},
		{1, 2, 3, 0},
	}
	for _, perm := range perms {
		pc := model.PermuteStates(c, perm)
		if got := pc.CanonicalSlotFingerprint(classes); got != want {
			t.Errorf("perm %v: canonical fingerprint %#x, want %#x", perm, got, want)
		}
	}
	// Sanity: the plain fingerprint is NOT permutation-invariant here (the
	// states genuinely differ after the schedule above).
	if got := model.PermuteStates(c, []int{1, 0, 2, 3}).SlotFingerprint(); got == c.SlotFingerprint() {
		t.Log("plain fingerprints coincide (states equal after schedule); invariance check vacuous")
	}
}

// TestSymmetryClassesDeclarations: the anonymous baselines declare one
// full class; the pid-dependent ones declare none.
func TestSymmetryClassesDeclarations(t *testing.T) {
	pair := baseline.NewPairConsensus(2).WithProcesses(3)
	if got := model.SymmetryClasses(pair); len(got) != 1 || len(got[0]) != 3 {
		t.Errorf("pair consensus classes = %v, want one class of 3", got)
	}
	racing, err := baseline.NewRacingCounters(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.SymmetryClasses(racing); got != nil {
		t.Errorf("racing counters declared symmetry %v; it writes register pid and must not", got)
	}
	rr, err := baseline.NewReadableRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := model.SymmetryClasses(rr); got != nil {
		t.Errorf("readable race declared symmetry %v; it swaps ⟨U,pid⟩ and must not", got)
	}
}

// FuzzCanonicalize is the symmetry differential fuzzer, the quotient
// counterpart of FuzzStepperCOW: after a random schedule on the
// anonymous toy-bit race, the canonical slot fingerprint must be
// invariant under a random permutation of the process states. Any
// divergence would mean the orbit representative the reduced explorer
// dedups on depends on which member it happened to reach first — exactly
// the bug class that would silently change reduced results.
func FuzzCanonicalize(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1}, []byte{1, 2, 3})
	f.Add([]byte{3, 3, 3, 0, 0, 1, 2}, []byte{0})
	f.Add([]byte{2, 0, 2, 0, 2, 1}, []byte{3, 1})
	f.Fuzz(func(t *testing.T, schedule, permBytes []byte) {
		if len(schedule) > 64 {
			schedule = schedule[:64]
		}
		p := mustToyBit(t, 4, 2)
		classes := model.SymmetryClasses(p)
		c := model.MustNewConfig(p, []int{0, 1, 1, 0})
		for _, b := range schedule {
			pid := int(b) % 4
			if _, decided := c.Decided(p, pid); decided {
				continue
			}
			if _, err := model.Apply(p, c, pid); err != nil {
				t.Fatal(err)
			}
		}
		perm := permFromBytes(4, permBytes)
		pc := model.PermuteStates(c, perm)
		got, want := pc.CanonicalSlotFingerprint(classes), c.CanonicalSlotFingerprint(classes)
		if got != want {
			t.Fatalf("canonical fingerprint not permutation-invariant: perm %v gives %#x, want %#x", perm, got, want)
		}
	})
}
