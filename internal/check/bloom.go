package check

import "math/bits"

// bloomFilter is the spill store's in-memory prefilter over spilled
// fingerprints: a fixed-size blocked Bloom filter the store fills as its
// resident delta flushes to sorted runs. It answers "was this
// fingerprint possibly spilled?" with no false negatives, which is what
// lets the barrier's delayed-duplicate resolution skip the run-file merge
// for every admission the filter proves fresh: a bloom-negative entry
// cannot be in any run, so its tentative admission is already final.
// Bloom-positive entries — the probable duplicates — still go through the
// exact sorted-run probes (a positive alone may be a false positive, so
// it can never drop a state by itself).
//
// The filter is sized once, from the store's byte budget, and is never
// rebuilt: insertions beyond the design capacity only raise the
// false-positive rate (more merge work, never wrong results), and
// compaction leaves it untouched — membership is cumulative, exactly like
// the spilled history it summarizes.
type bloomFilter struct {
	words []uint64
	mask  uint64 // index mask over bits (len(words)*64 - 1)
	n     int64  // insertions, for diagnostics
}

// bloomBitsPerEntry targets a ~1% false-positive rate with 4 probes at
// design capacity (k=4, m/n=10 gives p ≈ 1.2%).
const bloomBitsPerEntry = 10

// newBloomFilter sizes a filter for roughly capacity entries (rounded up
// to a power-of-two bit count). The floor is deliberately small — 512
// bits, 64 bytes — so that a filter under a toy budget stays a rounding
// error next to the budget itself (its bytes are reported in the peak but
// never trigger spills).
func newBloomFilter(capacity int64) *bloomFilter {
	bitsWanted := uint64(capacity) * bloomBitsPerEntry
	if bitsWanted < 1<<9 {
		bitsWanted = 1 << 9
	}
	sz := uint64(1) << bits.Len64(bitsWanted-1)
	return &bloomFilter{words: make([]uint64, sz/64), mask: sz - 1}
}

// probes derives the filter's four bit indices from a fingerprint: two
// independent halves of a splitmix64 remix (reduce.go's mix2) drive
// double hashing. The fingerprints are already well-mixed 64-bit hashes,
// but remixing keeps the filter honest even for adversarially aligned
// inputs.
func (b *bloomFilter) probes(fp uint64) (h1, h2 uint64) {
	x := mix2(fp ^ 0x9E3779B97F4A7C15)
	return x, x>>32 | x<<32 | 1 // odd step so double hashing cycles all bits
}

// add inserts a fingerprint.
func (b *bloomFilter) add(fp uint64) {
	h, step := b.probes(fp)
	for i := 0; i < 4; i++ {
		bit := h & b.mask
		b.words[bit/64] |= 1 << (bit % 64)
		h += step
	}
	b.n++
}

// has reports whether fp may have been added (false = definitely not).
func (b *bloomFilter) has(fp uint64) bool {
	h, step := b.probes(fp)
	for i := 0; i < 4; i++ {
		bit := h & b.mask
		if b.words[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
		h += step
	}
	return true
}

// bytes reports the filter's resident size, for the store's peak
// accounting.
func (b *bloomFilter) bytes() int64 { return int64(len(b.words)) * 8 }
