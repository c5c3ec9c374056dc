// Package lowerbound makes the paper's lower-bound arguments executable.
// The proofs of Theorem 10 (via Lemma 9), Theorem 18 (via Lemmas 13-16)
// and Theorem 22 (via Lemma 20) are constructive: they describe adversarial
// schedules and bookkeeping built step by step against an arbitrary
// algorithm. This package implements those constructions against concrete
// model.Protocol instances and emits machine-checked certificates:
//
//   - Lemma9: the overwriting adversary of Section 4 (Figure 1), which
//     certifies that a protocol on swap objects touches at least |Q|
//     distinct objects.
//   - Theorem10Certificate: the full induction of Theorem 10, combining
//     Lemma 9 with the dichotomy over R-only executions.
//   - FindAgreementViolation: schedule search demonstrating why a protocol
//     with too few objects fails outright (e.g. 2-process swap consensus
//     run with 3 processes).
//   - ProveBivalent, Lemma13Gamma and CoveringScan: the
//     bivalence-preserving block-swap machinery of Section 5.
//   - Lemma16Run: the X/Y covering induction of Section 5.1.
//   - Ledger: the forbidden-value accounting (f, g, S) of Lemma 20.
//
// Every search here reaches configurations only through the frontier
// engine (check.RunFrontier): the witness, bivalence, Lemma 13 and
// covering searches and Lemma 16's bivalence test are the one class
// search, check.SearchClasses, under different classifiers.
//
// A lower bound quantifies over all algorithms and is not itself
// executable; what these tools certify is the constructive content of the
// proofs on each protocol they are pointed at, which is exactly how the
// paper's evaluation (Table 1) is reproduced.
package lowerbound

// Theorem10Bound returns ⌈n/k⌉ - 1, the minimum number of swap objects for
// nondeterministic solo-terminating (k+1)-valued k-set agreement
// (Theorem 10). For k = 1 this is n - 1, matching Algorithm 1 exactly.
func Theorem10Bound(n, k int) int {
	if k < 1 || n < 1 {
		return 0
	}
	return ceilDiv(n, k) - 1
}

// Theorem18Bound returns n - 2, the minimum number of readable binary swap
// objects for obstruction-free binary consensus (Theorem 18).
func Theorem18Bound(n int) int {
	if n < 2 {
		return 0
	}
	return n - 2
}

// Theorem22Bound returns ⌈(n-2)/(3b+1)⌉, the minimum number of readable
// swap objects with domain size b for obstruction-free binary consensus
// (Theorem 22: at least (n-2)/(3b+1) objects; object counts are integers).
func Theorem22Bound(n, b int) int {
	if n < 2 || b < 2 {
		return 0
	}
	return ceilDiv(n-2, 3*b+1)
}

// EGZRegisterBound returns n, the register lower bound for consensus by
// Ellen, Gelashvili and Zhu [16], quoted in Table 1.
func EGZRegisterBound(n int) int { return n }

// EGZRegisterKSetBound returns ⌈n/k⌉, the register lower bound for k-set
// agreement by Ellen, Gelashvili and Zhu [16], quoted in Table 1.
func EGZRegisterKSetBound(n, k int) int {
	if k < 1 {
		return 0
	}
	return ceilDiv(n, k)
}

// Algorithm1Objects returns n - k, Algorithm 1's space usage (the paper's
// upper bound for k-set agreement from swap objects).
func Algorithm1Objects(n, k int) int { return n - k }

// BowmanObjects returns 2n - 1, the binary-object upper bound for
// obstruction-free binary consensus quoted from Bowman [7] in Table 1.
func BowmanObjects(n int) int { return 2*n - 1 }

// EGSZObjects returns n - 1, the readable-swap upper bound for consensus
// by Ellen, Gelashvili, Shavit and Zhu [15].
func EGSZObjects(n int) int { return n - 1 }

// RegisterKSetObjects returns n - k + 1, the register upper bound for
// k-set agreement (Bouzid, Raynal and Sutra [6]; also the simple
// construction in the paper's introduction).
func RegisterKSetObjects(n, k int) int { return n - k + 1 }

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
