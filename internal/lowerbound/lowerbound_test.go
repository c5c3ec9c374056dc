package lowerbound

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/model"
)

// --- Bound formulas (the numeric content of Table 1) ---

func TestTheorem10BoundFormula(t *testing.T) {
	tests := []struct{ n, k, want int }{
		{2, 1, 1}, {3, 1, 2}, {8, 1, 7}, // consensus: n-1
		{4, 2, 1}, {5, 2, 2}, {6, 2, 2}, {7, 2, 3}, // ⌈n/2⌉-1
		{9, 3, 2}, {10, 3, 3}, {12, 4, 2},
	}
	for _, tt := range tests {
		if got := Theorem10Bound(tt.n, tt.k); got != tt.want {
			t.Errorf("Theorem10Bound(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestTheorem18And22Formulas(t *testing.T) {
	if got := Theorem18Bound(10); got != 8 {
		t.Errorf("Theorem18Bound(10) = %d, want n-2 = 8", got)
	}
	// Theorem 22: (n-2)/(3b+1); for b=2 that is (n-2)/7.
	if got := Theorem22Bound(30, 2); got != 4 {
		t.Errorf("Theorem22Bound(30,2) = %d, want 4", got)
	}
	// For b = 2 the dedicated n-2 bound dominates (paper, Section 5).
	if Theorem18Bound(30) <= Theorem22Bound(30, 2) {
		t.Error("Theorem 18 must beat Theorem 22 at b=2")
	}
}

func TestUpperBoundFormulas(t *testing.T) {
	if Algorithm1Objects(9, 2) != 7 {
		t.Error("Algorithm1Objects: n-k")
	}
	if BowmanObjects(5) != 9 {
		t.Error("BowmanObjects: 2n-1")
	}
	if EGSZObjects(5) != 4 {
		t.Error("EGSZObjects: n-1")
	}
	if RegisterKSetObjects(7, 3) != 5 {
		t.Error("RegisterKSetObjects: n-k+1")
	}
	if EGZRegisterBound(6) != 6 {
		t.Error("EGZRegisterBound: n")
	}
	if EGZRegisterKSetBound(7, 2) != 4 {
		t.Error("EGZRegisterKSetBound: ⌈n/k⌉")
	}
}

// TestQuickBoundMonotonicity: the certified lower bound never exceeds the
// matching upper bound, for all (n, k) — the sanity the paper's Table 1
// encodes.
func TestQuickBoundMonotonicity(t *testing.T) {
	prop := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%30) + 2
		k := int(kRaw%uint8(n-1)) + 1 // 1 <= k < n
		return Theorem10Bound(n, k) <= Algorithm1Objects(n, k) &&
			Theorem18Bound(n) <= BowmanObjects(n) &&
			Theorem22Bound(n, 2) <= BowmanObjects(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- Lemma 9 ---

// TestLemma9ManualHypothesis builds the lemma's hypothesis by hand for
// consensus: p0 decides 0 solo (α), Q = {p1, p2, p3} with input 1, and
// checks the certificate has |Q| distinct objects.
func TestLemma9ManualHypothesis(t *testing.T) {
	const n = 4
	p := core.MustNew(core.Params{N: n, K: 1, M: 2})
	inputs := []int{0, 1, 1, 1}
	c := model.MustNewConfig(p, inputs)
	res, err := check.SoloRun(p, c, 0, p.Params().SoloStepBound())
	if err != nil {
		t.Fatal(err)
	}
	alpha := make([]int, res.Steps)
	for i := range alpha {
		alpha[i] = 0
	}
	cert, err := Lemma9(Lemma9Input{
		Protocol: p,
		Inputs:   inputs,
		Alpha:    alpha,
		Q:        []int{1, 2, 3},
		V:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(cert.Objects), 3; got != want {
		t.Fatalf("certified %d objects, want |Q| = %d", got, want)
	}
	if got := len(cert.Stages); got != 3 {
		t.Fatalf("%d stages, want one per process of Q", got)
	}
	// Objects must be distinct (they are the certificate).
	seen := map[int]bool{}
	for _, obj := range cert.Objects {
		if seen[obj] {
			t.Fatalf("object B%d certified twice", obj)
		}
		seen[obj] = true
	}
	if len(cert.AlphaDecided) != 1 || cert.AlphaDecided[0] != 0 {
		t.Fatalf("α decided %v, want [0]", cert.AlphaDecided)
	}
}

// TestLemma9StageInvariants checks the per-stage structure from Figure 1:
// every stage contributes a distinct new object, and the mirrored prefix τ
// only touches objects already in A_i.
func TestLemma9StageInvariants(t *testing.T) {
	p := core.MustNew(core.Params{N: 5, K: 1, M: 2})
	cert, err := ConsensusCertificate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	inA := map[int]bool{}
	for i, st := range cert.Stages {
		if inA[st.NewObject] {
			t.Fatalf("stage %d: B%d was already in A", i, st.NewObject)
		}
		inA[st.NewObject] = true
		if st.TauLen < 0 {
			t.Fatalf("stage %d: negative τ", i)
		}
		if st.ValueAfter == nil {
			t.Fatalf("stage %d: missing value(B⋆)", i)
		}
	}
}

// TestLemma9RejectsReadableObjects: the lemma's overwriting argument is
// specific to non-readable swap objects; the executable form must refuse
// protocols with readable objects (Section 4 explains why it fails there).
func TestLemma9RejectsReadableObjects(t *testing.T) {
	p := core.MustNew(core.Params{N: 3, K: 1, M: 2, Readable: true})
	_, err := Lemma9(Lemma9Input{
		Protocol: p,
		Inputs:   []int{0, 1, 1},
		Alpha:    nil,
		Q:        []int{1, 2},
		V:        1,
	})
	if err == nil {
		t.Fatal("Lemma 9 must reject protocols with readable objects")
	}
}

// TestLemma9RejectsQParticipatingInAlpha: the hypothesis requires α to
// contain no steps by Q.
func TestLemma9RejectsQParticipatingInAlpha(t *testing.T) {
	p := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	_, err := Lemma9(Lemma9Input{
		Protocol: p,
		Inputs:   []int{0, 1, 1},
		Alpha:    []int{1}, // q1 ∈ Q takes a step in α: hypothesis violated
		Q:        []int{1, 2},
		V:        1,
	})
	if err == nil {
		t.Fatal("Lemma 9 must reject α containing steps by Q")
	}
}

// TestConsensusCertificateAcrossSizes extends the smoke test and pins the
// exact count: the adversary certifies exactly n-1 objects on Algorithm 1
// for k=1, matching both Theorem 10 and the algorithm's n-1 upper bound.
func TestConsensusCertificateAcrossSizes(t *testing.T) {
	for n := 2; n <= 10; n++ {
		p := core.MustNew(core.Params{N: n, K: 1, M: 2})
		res, err := ConsensusCertificate(p, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := len(res.Objects), Theorem10Bound(n, 1); got != want {
			t.Errorf("n=%d: certified %d, want %d", n, got, want)
		}
	}
}

// TestConsensusCertificateOnPairing: the Lemma 9 adversary applies to any
// swap-only solo-terminating protocol. The pairing k-set algorithm for
// k = 1... does not exist (pairing needs k >= ⌈n/2⌉), so use n=2, k=1: one
// pair, one object; the certificate for consensus on 2 processes is 1
// object.
func TestConsensusCertificateOnPairing(t *testing.T) {
	p, err := baseline.NewPairing(2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ConsensusCertificate(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 {
		t.Fatalf("certified %d objects, want 1", len(res.Objects))
	}
}

// --- Theorem 10 driver ---

func TestTheorem10DriverMeetsBound(t *testing.T) {
	for _, tt := range []struct{ n, k int }{{4, 2}, {5, 2}, {6, 2}, {6, 3}, {8, 2}} {
		p := core.MustNew(core.Params{N: tt.n, K: tt.k, M: tt.k + 1})
		cert, err := Theorem10Driver(p, tt.k, SearchLimits{MaxConfigs: 60000, MaxDepth: 48}, 0)
		if err != nil {
			t.Fatalf("(n=%d,k=%d): %v", tt.n, tt.k, err)
		}
		if cert.Objects < cert.Bound {
			t.Errorf("(n=%d,k=%d): certified %d < bound %d", tt.n, tt.k, cert.Objects, cert.Bound)
		}
		if cert.Bound != Theorem10Bound(tt.n, tt.k) {
			t.Errorf("(n=%d,k=%d): bound mismatch", tt.n, tt.k)
		}
		if len(cert.Steps) == 0 {
			t.Errorf("(n=%d,k=%d): no induction steps recorded", tt.n, tt.k)
		}
		if cert.Lemma9 == nil {
			t.Errorf("(n=%d,k=%d): missing terminating Lemma 9 certificate", tt.n, tt.k)
		}
	}
}

// TestTheorem10DriverOnPairing runs the generic induction against a
// different swap-only algorithm (the wait-free Chaudhuri–Reiners pairing),
// checking the adversary is not specialized to Algorithm 1.
func TestTheorem10DriverOnPairing(t *testing.T) {
	for _, tt := range []struct{ n, k int }{{4, 2}, {6, 3}} {
		p, err := baseline.NewPairing(tt.n, tt.k, tt.k+1)
		if err != nil {
			t.Fatal(err)
		}
		cert, err := Theorem10Driver(p, tt.k, SearchLimits{MaxConfigs: 60000, MaxDepth: 48}, 0)
		if err != nil {
			t.Fatalf("(n=%d,k=%d): %v", tt.n, tt.k, err)
		}
		if cert.Objects < cert.Bound {
			t.Errorf("(n=%d,k=%d): certified %d < bound %d", tt.n, tt.k, cert.Objects, cert.Bound)
		}
	}
}

// TestTheorem10StepComplete checks that a level's step says whether its
// R-only search was conclusive: the wait-free pairing's finite space is
// exhausted at the default budget, and a tiny budget cuts it short.
func TestTheorem10StepComplete(t *testing.T) {
	p, err := baseline.NewPairing(4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		max  int
		want bool
	}{{60000, true}, {4, false}} {
		cert, err := Theorem10Driver(p, 2, SearchLimits{MaxConfigs: tt.max, MaxDepth: 48}, 0)
		if err != nil {
			t.Fatalf("max %d: %v", tt.max, err)
		}
		if s := cert.Steps[0]; s.K != 2 || s.Complete != tt.want {
			t.Errorf("max %d: level k=%d Complete = %v, want %v", tt.max, s.K, s.Complete, tt.want)
		}
	}
}

func TestTheorem10DriverRejectsBadParams(t *testing.T) {
	p := core.MustNew(core.Params{N: 4, K: 2, M: 3})
	if _, err := Theorem10Driver(p, 4, SearchLimits{}, 0); err == nil {
		t.Error("k >= n should be rejected")
	}
	if _, err := Theorem10Driver(p, 0, SearchLimits{}, 0); err == nil {
		t.Error("k = 0 should be rejected")
	}
}

// --- Covering machinery ---

func TestBlockUpdateSetsCoveredObjects(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	c := model.MustNewConfig(a1, []int{0, 1, 1})
	// Initially every process is poised to swap B0 (pass structure).
	cov := CoveredObjects(a1, c, []int{0, 1, 2})
	if _, ok := cov[0]; !ok {
		t.Fatalf("cover map %v should include B0", cov)
	}
	exec, err := BlockUpdate(a1, c, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(exec) != 2 {
		t.Fatalf("block update by 2 processes has %d steps", len(exec))
	}
	if got := exec.Participants(); len(got) != 2 {
		t.Fatalf("participants %v, want [0 1]", got)
	}
}

func TestObservation12SplitInputsBivalent(t *testing.T) {
	rc, err := baseline.NewRacingCounters(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Observation12(rc, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cert.Schedules) != 2 {
		t.Fatalf("bivalence certificate has %d witnesses, want 2", len(cert.Schedules))
	}
}

func TestProveBivalentOnToyProtocol(t *testing.T) {
	tb, err := baseline.NewToyBitRace(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := model.MustNewConfig(tb, []int{0, 1})
	cert, err := ProveBivalent(tb, c, []int{0, 1}, SearchLimits{MaxConfigs: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if cert == nil {
		t.Fatal("split inputs should be bivalent")
	}
}

func TestCoveringScanFindsSimultaneousCovers(t *testing.T) {
	a1 := core.MustNew(core.Params{N: 4, K: 1, M: 2})
	res, err := CoveringScan(a1, []int{0, 1, 0, 1}, SearchLimits{MaxConfigs: 20000, MaxDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	// In the initial configuration alone, all 4 processes cover B0 — but
	// distinct objects need staggered passes; the scan must find at least
	// 2 distinct objects simultaneously covered within this budget.
	if res.MaxCovered < 2 {
		t.Fatalf("MaxCovered = %d, want >= 2", res.MaxCovered)
	}
	// The cover map must be consistent: each mapped pid covers its object.
	c := model.MustNewConfig(a1, []int{0, 1, 0, 1})
	for _, pid := range res.Schedule {
		if _, err := model.Apply(a1, c, pid); err != nil {
			t.Fatal(err)
		}
	}
	for obj, pid := range res.CoverMap {
		if !c.Covers(a1, pid, obj) {
			t.Errorf("replayed schedule: p%d does not cover B%d", pid, obj)
		}
	}
}

// --- Lemma 13 ---

// TestLemma13PreservesBivalence: from a bivalent configuration with a
// covering set S, there is a Q-only extension γ with Q bivalent after the
// block swap by S.
func TestLemma13PreservesBivalence(t *testing.T) {
	tb, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Q = {0, 1} with split inputs; S = {2} covers B0 after one step of
	// p2 (ToyBitRace starts poised to swap bit 0).
	c := model.MustNewConfig(tb, []int{0, 1, 1, 0})
	res, err := Lemma13Gamma(tb, c, []int{0, 1}, []int{2},
		SearchLimits{MaxConfigs: 30000}, SearchLimits{MaxConfigs: 30000})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("no bivalence-preserving extension found")
	}
}

// --- Ledger (Lemma 20 / Figure 6) ---

func TestNewLedgerEmpty(t *testing.T) {
	l := NewLedger(5, 3)
	if l.Weight() != 0 {
		t.Fatalf("fresh ledger weight %d, want 0", l.Weight())
	}
	if l.MaxWeight() != (3*3+1)*5 {
		t.Fatalf("MaxWeight = %d, want (3b+1)·|A| = 50", l.MaxWeight())
	}
	if l.Forbidden(0, 0) {
		t.Fatal("fresh ledger forbids nothing")
	}
}

func TestLedgerCase1AddsToFAndWeighs2(t *testing.T) {
	l := NewLedger(3, 2)
	if err := l.ApplyCase1(1, 0, -1); err != nil {
		t.Fatal(err)
	}
	if !l.F[1][0] {
		t.Fatal("Case 1 must add v⋆ to f(B⋆)")
	}
	if l.Weight() != 2 {
		t.Fatalf("weight %d, want 2 (f entries weigh 2)", l.Weight())
	}
	if !l.Forbidden(1, 0) {
		t.Fatal("value must now be forbidden")
	}
}

func TestLedgerCase2AddsToGAndCoverer(t *testing.T) {
	l := NewLedger(3, 2)
	if err := l.ApplyCase2(2, 1, 7); err != nil {
		t.Fatal(err)
	}
	if !l.G[2][1] {
		t.Fatal("Case 2 must add v⋆ to g(B⋆)")
	}
	if l.S[7] != 2 {
		t.Fatal("Case 2 must record p7 covering B2")
	}
	if l.Weight() != 2 { // |g| = 1 weighs 1, |S| = 1 weighs 1
		t.Fatalf("weight %d, want 2", l.Weight())
	}
}

func TestLedgerCase2ReplacesCoverer(t *testing.T) {
	l := NewLedger(2, 2)
	if err := l.ApplyCase2(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.ApplyCase2(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, still := l.S[1]; still {
		t.Fatal("p1 must be replaced as coverer of B0")
	}
	if l.S[2] != 0 {
		t.Fatal("p2 must now cover B0")
	}
}

func TestLedgerCase1DropsCoverer(t *testing.T) {
	l := NewLedger(2, 2)
	if err := l.ApplyCase2(0, 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.ApplyCase1(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	if _, still := l.S[3]; still {
		t.Fatal("Case 1 with droppedProcess must remove it from S")
	}
	// Weight: f=1 (2) + g=1 (1) + |S|=0 → 3.
	if l.Weight() != 3 {
		t.Fatalf("weight %d, want 3", l.Weight())
	}
}

func TestLedgerCase1RejectsWrongDrop(t *testing.T) {
	l := NewLedger(2, 2)
	if err := l.ApplyCase1(0, 0, 5); err == nil {
		t.Fatal("dropping a process that covers nothing must fail")
	}
}

func TestLedgerRejectsOutOfRange(t *testing.T) {
	l := NewLedger(2, 2)
	if err := l.ApplyCase1(5, 0, -1); err == nil {
		t.Error("object out of range")
	}
	if err := l.ApplyCase1(0, 2, -1); err == nil {
		t.Error("value out of domain")
	}
	if err := l.ApplyCase2(-1, 0, 0); err == nil {
		t.Error("negative object")
	}
}

func TestLedgerStringMentionsState(t *testing.T) {
	l := NewLedger(2, 2)
	_ = l.ApplyCase2(1, 0, 4)
	s := l.String()
	for _, want := range []string{"weight=2", "p4→B1", "g=[0]"} {
		if !strings.Contains(s, want) {
			t.Errorf("ledger string missing %q: %s", want, s)
		}
	}
}

// TestRunLedgerOnToyBitRace runs the empirical Lemma 20 induction on a
// bounded-domain protocol and checks the capacity arithmetic of
// Theorem 22: the achieved weight never exceeds (3b+1)·|A|.
func TestRunLedgerOnToyBitRace(t *testing.T) {
	tb, err := baseline.NewToyBitRace(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunLedger(tb, []int{0, 1, 1, 0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w, max := run.Ledger.Weight(), run.Ledger.MaxWeight(); w > max {
		t.Fatalf("weight %d exceeds capacity %d", w, max)
	}
	if run.Inequality == "" {
		t.Fatal("missing Theorem 22 arithmetic summary")
	}
	// Stage records must be internally consistent.
	for i, st := range run.Stages {
		if st.Object < 0 || st.Object >= 3 {
			t.Errorf("stage %d: object %d out of range", i, st.Object)
		}
		if st.VStar < 0 || st.VStar >= 2 {
			t.Errorf("stage %d: v⋆ = %d outside domain 2", i, st.VStar)
		}
		if st.Case != Case1 && st.Case != Case2 {
			t.Errorf("stage %d: unclassified case", i)
		}
	}
}

func TestRunLedgerRejectsUnboundedObjects(t *testing.T) {
	rr, err := baseline.NewReadableRace(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLedger(rr, []int{0, 1, 1}, 0); err == nil {
		t.Fatal("ledger requires bounded readable swap objects")
	}
}

// --- Search ---

func TestFindKDistinctDecisions(t *testing.T) {
	// Pairing with n=4, k=2: two pairs can decide 2 distinct values.
	p, err := baseline.NewPairing(4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := FindKDistinctDecisions(p, []int{0, 1, 2, 0}, nil, 2, SearchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Decided) < 2 {
		t.Fatalf("decided %v, want 2 distinct values", w.Decided)
	}
}

func TestFindAgreementViolationOnCorrectProtocolFails(t *testing.T) {
	p := baseline.NewPairConsensus(2)
	w, err := FindAgreementViolation(p, []int{0, 1}, 1, SearchLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if w != nil {
		t.Fatalf("found a spurious violation %v on a correct 2-process protocol", w)
	}
}

func TestCaseKindString(t *testing.T) {
	if Case1.String() == "" || Case2.String() == "" {
		t.Fatal("case kinds must render")
	}
	if Case1.String() == Case2.String() {
		t.Fatal("case kinds must be distinguishable")
	}
}
