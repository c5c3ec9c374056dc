package check

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestKeyTableMatchesMap drives the exact-key set against a
// map[string]uint64 reference on random (fingerprint, key) streams in
// which many keys share a fingerprint, the zero fingerprint included, so
// both the slots and the shared-fingerprint map are exercised. claim, has,
// len and drainSorted must agree with the reference. It also pins the
// aliasing invariant: every string a claim returned aliases the arena and
// must read the same bytes after 100k more claims, after the set is
// drained, and after the drained set is refilled.
func TestKeyTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// A pool of distinct keys, each with its fingerprint: most of them on
	// a handful of shared fingerprints (0 among them), the rest on their
	// own random one.
	const poolSize = 4000
	keys := make([]string, poolSize)
	fps := make([]uint64, poolSize)
	seen := map[string]bool{}
	for i := range keys {
		for {
			b := make([]byte, 1+rng.Intn(40))
			rng.Read(b)
			if k := string(b); !seen[k] {
				seen[k], keys[i] = true, k
				break
			}
		}
		switch i % 4 {
		case 0:
			fps[i] = uint64(rng.Intn(4)) // 0, 1, 2 or 3: many keys each
		case 1:
			fps[i] = uint64(rng.Intn(64)) * 0x9E3779B97F4A7C15
		default:
			fps[i] = rng.Uint64()
		}
	}

	s := newKeyedSet(true)
	ref := map[string]uint64{}
	var returned, want []string // what claims returned, and the keys
	scratch := make([]byte, 0, 64)
	claim := func(fp uint64, key string) {
		t.Helper()
		// The key arrives in scratch that the next claim overwrites, as
		// the engine's chunk scratch does.
		scratch = append(scratch[:0], key...)
		stored, added := s.claim(fp, scratch)
		_, had := ref[key]
		if added == had {
			t.Fatalf("claim(%#x, %q) added=%v, reference had it: %v", fp, key, added, had)
		}
		if !added {
			if stored != "" {
				t.Fatalf("duplicate claim(%#x, %q) returned %q", fp, key, stored)
			}
			return
		}
		if stored != key {
			t.Fatalf("claim(%#x, %q) stored %q", fp, key, stored)
		}
		ref[key] = fp
		returned, want = append(returned, stored), append(want, key)
	}
	checkReturned := func(when string) {
		t.Helper()
		for i := range returned {
			if returned[i] != want[i] {
				t.Fatalf("%s: returned key %d reads %q, was %q", when, i, returned[i], want[i])
			}
		}
	}

	for range 20000 {
		i := rng.Intn(poolSize)
		claim(fps[i], keys[i])
	}
	if s.len() != len(ref) {
		t.Fatalf("len = %d, reference %d", s.len(), len(ref))
	}
	if len(s.keys.shared) == 0 {
		t.Fatal("no key went to the shared-fingerprint map: the stream forces several keys onto one fingerprint")
	}
	for i, k := range keys {
		_, in := ref[k]
		if got := s.has(fps[i], k); got != in {
			t.Fatalf("has(%#x, %q) = %v, reference %v", fps[i], k, got, in)
		}
	}

	// 100k more claims, every one new: chunks fill and new ones start,
	// the slots grow several times.
	for i := range 100000 {
		claim(uint64(i%1000), fmt.Sprintf("fresh-%d-%x", i, rng.Uint32()))
	}
	checkReturned("after 100k more claims")
	if s.len() != len(ref) {
		t.Fatalf("len = %d, reference %d", s.len(), len(ref))
	}

	wantSorted := make([]entry, 0, len(ref))
	for k, fp := range ref {
		wantSorted = append(wantSorted, entry{fp, k})
	}
	slices.SortFunc(wantSorted, entryCompare)
	var got []entry
	if err := s.drainSorted(func(fp uint64, key string) error {
		got = append(got, entry{fp, key})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, wantSorted) {
		t.Fatalf("drainSorted returned %d entries, not the reference's %d in entry order", len(got), len(wantSorted))
	}
	if s.len() != 0 {
		t.Fatalf("len = %d after drainSorted", s.len())
	}
	checkReturned("after drainSorted")

	// The drained set takes the same keys again, on chunks of its own.
	clear(ref)
	for i, k := range keys {
		claim(fps[i], k)
	}
	checkReturned("after the drained set was refilled")
	s = newKeyedSet(true)
	clear(ref)
	for i := range 5000 {
		claim(0, fmt.Sprintf("replaced-%d", i))
	}
	checkReturned("after the set was replaced")
}

// TestKeyedSetExactReservePresizes: seeding a checkpoint's exact entries
// (SeedVisited) sizes the delta's slots once, before the load, as it does
// a fingerprint table, so the load never grows the table and stays linear
// whatever order the entries arrive in. Under a budget the table is sized
// only for what the budget can take before a flush.
func TestKeyedSetExactReservePresizes(t *testing.T) {
	const n = 50000
	var visited entryList
	for i := range n {
		visited.add(uint64(i)*0x9E3779B97F4A7C15, fmt.Sprintf("key-%06d", i))
	}

	st, err := newSpillStore(storeCtx{workers: 1, nObj: 1, nProc: 2, stringKeys: true}, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.SeedVisited(visited); err != nil {
		t.Fatal(err)
	}
	tab := st.delta.keys
	if tab.grows != 0 {
		t.Errorf("seeding %d exact entries grew the table %d times, want a single presize", n, tab.grows)
	}
	if got := st.delta.len(); got != n {
		t.Errorf("seeded %d entries, want %d", got, n)
	}
	if want := 1 << 17; len(tab.slots) != want { // 50k entries fill 2^17 slots to 38%
		t.Errorf("seeded table has %d slots, want %d", len(tab.slots), want)
	}

	// The same load claimed without a reservation grows the table from
	// its initial size: the counter does see growth.
	plain := newKeyedSet(true)
	for i := range visited.fps {
		plain.add(visited.fps[i], visited.key(i))
	}
	if plain.keys.grows == 0 {
		t.Fatal("an unreserved load of 50k entries never grew the table")
	}

	// Under a budget an entry is charged at least mapEntryOverhead+1
	// bytes, so the table is sized for no more entries than that allows.
	const budget = 64 << 10
	d := newKeyedSet(true)
	if got, want := d.reserve(n, budget), int(budget/mapEntryOverhead)+1; got != want {
		t.Errorf("reserve(%d, %d) = %d, want %d", n, budget, got, want)
	}
	if len(d.keys.slots) > 4096 {
		t.Errorf("reserve under a %d-byte budget sized the table to %d slots", budget, len(d.keys.slots))
	}
}
