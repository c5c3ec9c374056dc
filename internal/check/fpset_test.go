package check

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFpSet drives the open-addressing table against a reference map,
// covering the zero-fingerprint sentinel and growth across several
// doublings.
func TestFpSet(t *testing.T) {
	s := newFpSet(16)
	ref := map[uint64]bool{}
	rng := rand.New(rand.NewSource(1))

	insert := func(fp uint64) {
		t.Helper()
		added := s.Add(fp)
		if added == ref[fp] {
			t.Fatalf("Add(%#x) = %v with ref present=%v", fp, added, ref[fp])
		}
		ref[fp] = true
	}

	insert(0) // zero is a representable fingerprint, not the empty sentinel
	if !s.Has(0) {
		t.Fatal("Has(0) = false after Add(0)")
	}
	if s.Add(0) {
		t.Fatal("Add(0) reported newly-added twice")
	}

	for i := 0; i < 20000; i++ {
		fp := rng.Uint64() >> uint(rng.Intn(40)) // skewed: force probe collisions
		insert(fp)
		insert(fp) // immediate duplicate must report already-present
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
	for fp := range ref {
		if !s.Has(fp) {
			t.Fatalf("Has(%#x) = false for inserted fingerprint", fp)
		}
	}
	for i := 0; i < 1000; i++ {
		fp := rng.Uint64()
		if !ref[fp] && s.Has(fp) {
			t.Fatalf("Has(%#x) = true for absent fingerprint", fp)
		}
	}
}

// TestFpSetGrowthBoundary pins the rehash trigger exactly: the table
// doubles when the load passes 70%, not at, and every member survives
// each rehash — including the out-of-band zero fingerprint, which must
// never occupy (or be counted against) a slot.
func TestFpSetGrowthBoundary(t *testing.T) {
	s := newFpSet(16) // 1024 slots: newFpSet never sizes below 1024
	if got := len(s.slots); got != 1024 {
		t.Fatalf("initial slots = %d, want 1024", got)
	}
	threshold := len(s.slots) * 7 / 10 // last count that does NOT grow

	s.Add(0) // tracked out of band: contributes to Len, never to load
	for i := 1; i <= threshold; i++ {
		s.Add(uint64(i) * 0x9E3779B97F4A7C15)
	}
	if got := len(s.slots); got != 1024 {
		t.Fatalf("slots = %d after %d inserts (70%% load), want no growth yet", got, threshold)
	}
	if s.Len() != threshold+1 {
		t.Fatalf("Len = %d, want %d", s.Len(), threshold+1)
	}

	s.Add(uint64(threshold+1) * 0x9E3779B97F4A7C15) // crosses 70%
	if got := len(s.slots); got != 2048 {
		t.Fatalf("slots = %d after crossing the load threshold, want 2048", got)
	}
	// Everything must survive the rehash, zero included.
	if !s.Has(0) {
		t.Fatal("zero fingerprint lost across grow")
	}
	for i := 1; i <= threshold+1; i++ {
		if !s.Has(uint64(i) * 0x9E3779B97F4A7C15) {
			t.Fatalf("fingerprint %d lost across grow", i)
		}
	}
	if s.Len() != threshold+2 {
		t.Fatalf("Len = %d after grow, want %d", s.Len(), threshold+2)
	}
}

// members enumerates s the way the stores do, through forEach.
func members(s *fpSet) []uint64 {
	var out []uint64
	s.forEach(func(fp uint64) error {
		out = append(out, fp)
		return nil
	})
	return out
}

// TestFpSetAppendAll: the stores' enumeration (forEach) returns every
// member exactly once (zero included) at every size around a growth
// boundary.
func TestFpSetAppendAll(t *testing.T) {
	s := newFpSet(16)
	want := map[uint64]bool{}
	add := func(fp uint64) {
		s.Add(fp)
		want[fp] = true
	}
	add(0)
	for i := 1; i <= 720; i++ { // straddles the 716-insert growth trigger
		add(uint64(i) << 13)
		if i == 715 || i == 716 || i == 717 || i == 720 {
			got := members(s)
			if len(got) != len(want) {
				t.Fatalf("after %d inserts: forEach returned %d members, want %d", i, len(got), len(want))
			}
			seen := map[uint64]bool{}
			for _, fp := range got {
				if seen[fp] {
					t.Fatalf("forEach duplicated %#x", fp)
				}
				seen[fp] = true
				if !want[fp] {
					t.Fatalf("forEach invented %#x", fp)
				}
			}
		}
	}
}

// maxDisplacement is the longest probe sequence in the table: how far the
// worst-placed member sits from its probe start.
func maxDisplacement(s *fpSet) uint64 {
	var worst uint64
	for i, fp := range s.slots {
		if fp != 0 {
			worst = max(worst, (uint64(i)-s.probeStart(fp))&s.mask)
		}
	}
	return worst
}

// TestFpSetReservedBulkLoad pins what keeps checkpoint seeding linear: a
// table-order dump (forEach) loaded into a table that reserved for it first never grows and probes
// no further than the table it was dumped from. Loading the same stream
// into an unreserved set is the anti-pattern reserve documents — every
// insert then walks one ever-longer cluster, seconds at this size and
// quadratic beyond — so it is described here, not timed.
func TestFpSetReservedBulkLoad(t *testing.T) {
	const n = 200000
	src := newFpSet(16)
	rng := rand.New(rand.NewSource(7))
	src.Add(0)
	for src.Len() < n {
		src.Add(rng.Uint64())
	}
	dump := members(src)

	dst := newFpSet(16)
	dst.reserve(len(dump))
	slots := len(dst.slots)
	if slots != len(src.slots) {
		t.Fatalf("reserve(%d) sized the table to %d slots; growing to %d members sized it to %d", n, slots, n, len(src.slots))
	}
	for _, fp := range dump {
		if !dst.Add(fp) {
			t.Fatalf("Add(%#x) reported a duplicate in a duplicate-free dump", fp)
		}
	}
	if len(dst.slots) != slots {
		t.Fatalf("the reserved table grew from %d to %d slots during the load", slots, len(dst.slots))
	}
	if dst.Len() != n {
		t.Fatalf("Len = %d after the load, want %d", dst.Len(), n)
	}
	// 200k random members in 2^19 slots (38% load): the longest probe
	// sequence is a few dozen slots, not the thousands a cluster built by
	// an unreserved load reaches.
	if got, was := maxDisplacement(dst), maxDisplacement(src); got > was || got > 64 {
		t.Fatalf("longest probe sequence after the reserved load = %d slots (source table %d), want <= source and <= 64", got, was)
	}

	// Reserving on a populated table rehashes it once, losing nothing.
	dst.reserve(4 * n)
	if len(dst.slots) <= slots {
		t.Fatalf("reserve(%d) on %d members left the table at %d slots", 4*n, n, len(dst.slots))
	}
	slots = len(dst.slots)
	for _, fp := range dump {
		if !dst.Has(fp) {
			t.Fatalf("fingerprint %#x lost across reserve", fp)
		}
	}
	for dst.Len() < 5*n {
		dst.Add(rng.Uint64())
	}
	if len(dst.slots) != slots {
		t.Fatalf("the table grew from %d to %d slots within its reservation", slots, len(dst.slots))
	}
}

// TestFpSetPartitionedLowBits inserts fingerprints that all share their
// low bits — the population a table sees when its caller routes by them —
// across several growths.
func TestFpSetPartitionedLowBits(t *testing.T) {
	s := newFpSet(16)
	const low = 0x2a
	for i := uint64(1); i <= 50000; i++ {
		fp := i<<6 | low
		if !s.Add(fp) {
			t.Fatalf("Add(%#x) reported duplicate on first insert", fp)
		}
		if !s.Has(fp) {
			t.Fatalf("Has(%#x) = false immediately after Add", fp)
		}
	}
	if s.Len() != 50000 {
		t.Fatalf("Len = %d, want 50000", s.Len())
	}
	if s.Has(1<<6 | 0x2b) {
		t.Fatal("Has reported a fingerprint from another partition")
	}
}

// TestFpSetDrainSorted: a drained table returns every member once, in
// ascending order, the out-of-band zero fingerprint included, on both
// sides of the radix sort's cutover.
func TestFpSetDrainSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 100, radixMin - 1, radixMin, 50000} {
		for _, zero := range []bool{false, true} {
			s := newFpSet(16)
			var want []uint64
			for len(want) < n {
				if fp := rng.Uint64(); fp != 0 && s.Add(fp) {
					want = append(want, fp)
				}
			}
			if zero {
				s.Add(0)
				want = append(want, 0)
			}
			slices.Sort(want)
			if got := s.drainSorted(); !slices.Equal(got, want) {
				t.Errorf("n=%d zero=%t: drained %d members (sorted %t), want %d", n, zero, len(got), slices.IsSorted(got), len(want))
			}
		}
	}
}

// TestSortFingerprints: the radix sort orders like slices.Sort on random
// input and on inputs that stress its passes: every element one value
// (each pass skipped), one digit varying (three skipped), already sorted,
// reversed, duplicates, and lengths either side of radixMin.
func TestSortFingerprints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := map[string]func(i int) uint64{
		"random":     func(int) uint64 { return rng.Uint64() },
		"one-value":  func(int) uint64 { return 0xdeadbeefcafef00d },
		"low-digit":  func(int) uint64 { return 0x1234_5678_9abc_0000 | uint64(rng.Intn(1<<16)) },
		"high-digit": func(int) uint64 { return uint64(rng.Intn(1<<16))<<48 | 0x5555 },
		"ascending":  func(i int) uint64 { return uint64(i)<<24 | 0xabc },
		"descending": func(i int) uint64 { return ^(uint64(i) << 20) },
		"duplicates": func(int) uint64 { return uint64(rng.Intn(7)) << 33 },
	}
	for name, g := range gen {
		for _, n := range []int{0, 1, radixMin - 1, radixMin, 3*radixMin + 7, 100000} {
			a := make([]uint64, n)
			for i := range a {
				a[i] = g(i)
			}
			want := slices.Clone(a)
			slices.Sort(want)
			if sortFingerprints(a); !slices.Equal(a, want) {
				t.Errorf("%s n=%d: differs from slices.Sort", name, n)
			}
		}
	}
}
