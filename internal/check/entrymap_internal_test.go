package check

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// mapVal is a pointer-free value for the generic entryMap half of
// TestEntryMapMatchesMap.
type mapVal struct {
	a uint64
	b uint32
	c int32
}

// TestEntryMapMatchesMap drives the entry maps (an entryMap of
// pointer-free values and a pathMap) against map[entry]V references on
// random streams of sets and lookups, over several clear-and-refill cycles
// as a run's levels reuse them. Fingerprints are drawn so that collisions are
// the rule, as under the degenerate slot hash: every key on one
// fingerprint, keys spread over three fingerprints, and fingerprint 0,
// which cannot take a slot; under fingerprint keys (key "") the entry is
// its fingerprint, 0 included. After every cycle each map must hold
// exactly the reference's entries, each under the key it was first set
// with, and after a clear none of the previous cycle's entries may be
// found, nor its values or paths read through a new entry.
func TestEntryMapMatchesMap(t *testing.T) {
	const keys = 600
	pool := make([]string, keys) // exact keys of 3 words, each a copy of its own
	for i := range pool {
		pool[i] = tupleKey([]uint32{uint32(i), uint32(i * 7), uint32(i % 5)})
	}
	cases := []struct {
		name  string
		exact bool
		fp    func(i int) uint64 // key i's fingerprint
	}{
		{"exact/one-fingerprint", true, func(int) uint64 { return 0x9E3779B97F4A7C15 }},
		{"exact/three-fingerprints", true, func(i int) uint64 { return uint64(i%3) << 60 }}, // 0 included
		{"exact/zero", true, func(int) uint64 { return 0 }},
		{"exact/spread", true, func(i int) uint64 { return uint64(i)*0x2545F4914F6CDD1D | 1 }},
		{"fingerprints/shared-low-bits", false, func(i int) uint64 { return uint64(i) << 40 }}, // 0 included
		{"fingerprints/spread", false, func(i int) uint64 { return uint64(i+1) * 0x2545F4914F6CDD1D }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			entryOf := func(i int) entry {
				if tc.exact {
					return entry{tc.fp(i), pool[i]}
				}
				return entry{tc.fp(i), ""}
			}
			claims := newEntryMap[mapVal]()
			// get is the value of (fp, key), or nil, and the key the map
			// holds it under.
			get := func(fp uint64, key string) (*mapVal, string) {
				if i, ok, _ := claims.find(fp, key); ok {
					return &claims.vals[i], claims.keys[i]
				}
				return nil, ""
			}
			paths := newPathMap()
			var prev []entry // the previous cycle's entries
			for cycle := range 4 {
				refClaims := map[entry]mapVal{}
				refPaths := map[entry][]byte{}
				stored := map[entry]string{} // the key each entry was first set with
				depth := 1 + cycle           // one level's paths share a length
				// Each cycle sets a different share of the pool, and sets
				// most entries more than once.
				for range 3 * keys {
					i := rng.Intn(keys)
					if i%4 == cycle {
						continue
					}
					e := entryOf(i)
					key := e.key
					if tc.exact && rng.Intn(2) == 0 {
						// An equal key on bytes of its own: only an entry's
						// first key is kept.
						key = string([]byte(e.key))
					}
					if _, ok := stored[e]; !ok {
						stored[e] = key
					}
					c := mapVal{a: rng.Uint64(), b: uint32(rng.Intn(1000)), c: int32(rng.Intn(8))}
					claims.set(e.fp, key, c)
					refClaims[e] = c
					if rng.Intn(3) == 0 {
						path := make([]byte, depth-1)
						for j := range path {
							path[j] = byte(rng.Intn(8))
						}
						pid := byte(rng.Intn(8))
						paths.setPath(e.fp, key, path, pid)
						refPaths[e] = append(path, pid)
					}
					// A lookup of a random pool entry after every set.
					probe := entryOf(rng.Intn(keys))
					got, _ := get(probe.fp, probe.key)
					if want, ok := refClaims[probe]; ok != (got != nil) || ok && *got != want {
						t.Fatalf("cycle %d: get %v = %v, the reference holds %v (%t)", cycle, probe.fp, got, want, ok)
					}
				}
				if claims.len() != len(refClaims) || paths.len() != len(refPaths) {
					t.Fatalf("cycle %d: %d claims and %d paths, the references hold %d and %d",
						cycle, claims.len(), paths.len(), len(refClaims), len(refPaths))
				}
				for i := range keys {
					e := entryOf(i)
					got, key := get(e.fp, e.key)
					want, ok := refClaims[e]
					if ok != (got != nil) || ok && *got != want {
						t.Fatalf("cycle %d: entry %d holds %v, the reference %v (%t)", cycle, i, got, want, ok)
					}
					if ok && (key != e.key || tc.exact && !sameData(key, stored[e])) {
						t.Fatalf("cycle %d: entry %d is held under a key other than the one it was first set with", cycle, i)
					}
					path, ok := paths.path(e.fp, e.key)
					if wantPath, wok := refPaths[e]; ok != wok || !slices.Equal(path, wantPath) {
						t.Fatalf("cycle %d: entry %d has path %v (%t), the reference %v (%t)", cycle, i, path, ok, wantPath, wok)
					}
				}
				// What the last cycle held and this one did not set is gone.
				for _, e := range prev {
					if _, ok := refClaims[e]; ok {
						continue
					}
					if got, _ := get(e.fp, e.key); got != nil {
						t.Fatalf("cycle %d: a cleared entry (%#x) is still found", cycle, e.fp)
					}
				}
				prev = prev[:0]
				for e := range refClaims {
					prev = append(prev, e)
				}
				claims.clear()
				paths.clear()
				if claims.len() != 0 || paths.len() != 0 {
					t.Fatalf("cycle %d: a cleared map holds %d claims and %d paths", cycle, claims.len(), paths.len())
				}
				for _, e := range prev {
					if got, _ := get(e.fp, e.key); got != nil {
						t.Fatalf("cycle %d: entry %#x is found after the clear", cycle, e.fp)
					}
					if _, ok := paths.path(e.fp, e.key); ok {
						t.Fatalf("cycle %d: a path is found after the clear", cycle)
					}
				}
			}
		})
	}
}

// sameData reports whether a and b are one string in memory, not just
// equal bytes.
func sameData(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}
