package model

// This file is the model-side half of process-symmetry quotienting: the
// opt-in declaration interface a protocol uses to state which processes
// are interchangeable, and the reference canonical fingerprint the
// explorer's incremental reducer (internal/check) must agree with.
//
// Renaming processes within a declared class maps every reachable
// configuration to a reachable configuration with identical behaviour, so
// exploring one representative per orbit answers every orbit-invariant
// question (decided-value sets, valency, violation existence) at a
// fraction of the state count. The declaration is a soundness contract:
// a protocol may declare a class only if its transition relation is
// invariant under renaming the class's processes — no Poised/Observe
// branch on pid, and no object value or state encoding a class member's
// identity. Algorithm 1 swaps ⟨U, pid⟩ pairs into its objects and
// RacingCounters writes register pid, so neither declares symmetry; the
// anonymous baselines (ToyBitRace, PairConsensus, Pairing) do.

// ProcessSymmetric is implemented by protocols that are invariant under
// renaming processes within each returned class. Classes are sets of pids
// (disjoint; pids outside every class are never permuted). The explorer
// refines each class against the start configuration — only processes
// with identical initial states are actually interchangeable for a given
// input assignment — so declaring the coarsest classes (typically one
// class of all processes for an anonymous protocol) is always correct.
type ProcessSymmetric interface {
	// SymmetryClasses returns the process classes the protocol is
	// symmetric in. The slices must be treated as read-only.
	SymmetryClasses() [][]int
}

// SymmetryClasses returns p's declared symmetry classes, or nil when p
// declares none.
func SymmetryClasses(p Protocol) [][]int {
	if s, ok := p.(ProcessSymmetric); ok {
		return s.SymmetryClasses()
	}
	return nil
}

// SingleClass is the declaration of a fully anonymous protocol: one
// symmetry class containing all n processes. (The explorer refines it by
// initial state, so the coarse declaration is always correct.)
func SingleClass(n int) [][]int {
	class := make([]int, n)
	for i := range class {
		class[i] = i
	}
	return [][]int{class}
}

// PermuteStates returns a copy of c with the process states rearranged by
// perm: the state of process pid moves to slot perm[pid]. Objects are
// unchanged (process renaming does not move objects). perm must be a
// permutation of 0..len(c.States)-1. It is the test-side tool for
// exercising symmetry invariants; the explorers never materialize
// permuted configurations.
func PermuteStates(c *Config, perm []int) *Config {
	out := &Config{
		Objects: append([]Value(nil), c.Objects...),
		States:  make([]State, len(c.States)),
	}
	for pid, s := range c.States {
		out.States[perm[pid]] = s
	}
	return out
}

// CanonicalSlotFingerprint returns the orbit-canonical variant of
// SlotFingerprint under the given process classes: object slots and
// out-of-class state slots contribute positionally exactly as in
// SlotFingerprint, while the state slots of class ci contribute only
// through ClassTerm(ci, sum), sum being the wrapping sum of Mix64 over
// the class members' state-slot content hashes (the finalizer keeps sums
// of a few shares well spread). A sum forgets which
// member holds which state, so two configurations related by a
// permutation within the classes fingerprint identically; and since a
// step changes one state slot, a successor's fingerprint is its parent's
// with one class sum adjusted by two terms — O(1) per successor, which is
// what the incremental reducer in internal/check does.
//
// This is the from-scratch reference that reducer must agree with;
// FuzzCanonicalize pins the permutation invariance down. Like every
// 64-bit fingerprint in the repository, distinct orbits may collide with
// probability ~2^-64 per pair.
func (c *Config) CanonicalSlotFingerprint(classes [][]int) uint64 {
	bp := keyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	nObj := len(c.Objects)
	class := make([]int, len(c.States))
	for i := range class {
		class[i] = -1
	}
	for ci, members := range classes {
		for _, pid := range members {
			class[pid] = ci
		}
	}

	var fp uint64
	for i, v := range c.Objects {
		buf = appendValue(buf[:0], v)
		fp ^= mixSlot(i, hashEncoding(buf))
	}
	sums := make([]uint64, len(classes))
	for pid, s := range c.States {
		buf = appendState(buf[:0], s)
		h := hashEncoding(buf)
		if ci := class[pid]; ci >= 0 {
			sums[ci] += Mix64(h)
		} else {
			fp ^= mixSlot(nObj+pid, h)
		}
	}
	for ci, sum := range sums {
		fp ^= ClassTerm(ci, sum)
	}
	*bp = buf
	keyBufPool.Put(bp)
	return fp
}

// ClassTerm is class ci's contribution to CanonicalSlotFingerprint, given
// the wrapping sum of Mix64 over its members' state-slot hashes. The
// class index salts it, so two classes holding the same states do not
// cancel.
func ClassTerm(ci int, sum uint64) uint64 { return Mix64(sum ^ (uint64(ci)+1)*0xD6E8FEB86659FD93) }
