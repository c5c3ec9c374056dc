package check

import (
	"math/rand"
	"testing"
)

// TestBloomNoFalseNegatives: everything added must be reported present —
// the property the spill store's merge-skip soundness rests on.
func TestBloomNoFalseNegatives(t *testing.T) {
	b := newBloomFilter(1 << 10)
	rng := rand.New(rand.NewSource(1))
	fps := make([]uint64, 4096) // 4x design capacity: saturation must not break the contract
	for i := range fps {
		fps[i] = rng.Uint64()
		b.add(fps[i])
	}
	for _, fp := range fps {
		if !b.has(fp) {
			t.Fatalf("false negative for %#x", fp)
		}
	}
}

// TestBloomFalsePositiveRate: at design capacity the filter stays near
// its ~1% target (asserted loosely at 5% to keep the test robust).
func TestBloomFalsePositiveRate(t *testing.T) {
	const n = 1 << 12
	b := newBloomFilter(n)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		b.add(rng.Uint64())
	}
	falsePos := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if b.has(rng.Uint64()) {
			falsePos++
		}
	}
	if rate := float64(falsePos) / probes; rate > 0.05 {
		t.Errorf("false-positive rate %.2f%% at design capacity, want < 5%%", 100*rate)
	}
}

// TestBloomMinimumSize: tiny capacities round up to the 64-byte floor —
// functional under toy budgets, yet a rounding error next to any real
// budget.
func TestBloomMinimumSize(t *testing.T) {
	b := newBloomFilter(1)
	if b.bytes() < 64 || b.bytes() > 512 {
		t.Errorf("filter is %d bytes, want the small floor (64..512)", b.bytes())
	}
	b.add(42)
	if !b.has(42) {
		t.Error("added fingerprint not found")
	}
	if b.has(43) && b.has(44) && b.has(45) && b.has(46) && b.has(47) {
		t.Error("five arbitrary absent fingerprints all reported present in a near-empty filter")
	}
}
