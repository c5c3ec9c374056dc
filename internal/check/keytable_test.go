package check

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// keyPool interns configurations of stepProto{n: 3} (one object, three
// states: four slots) into d and hands out their exact keys, each on a
// slice of its own, with the configurations' encodings, by which the
// engine orders keys of one fingerprint.
type keyPool struct {
	d    *model.Dict
	encs map[string]string // key -> encoding
}

func newKeyPool() *keyPool {
	return &keyPool{d: model.NewDict(stepProto{n: 3}), encs: map[string]string{}}
}

// key interns the configuration with object value v and state counters cs.
func (p *keyPool) key(v int, cs [3]int) string {
	c := &model.Config{Objects: []model.Value{model.Int(v)}, States: make([]model.State, 3)}
	for i, x := range cs {
		c.States[i] = stepSt{c: x}
	}
	refs := make([]uint32, 4)
	p.d.Intern(c, refs)
	key := tupleKey(refs)
	p.encs[key] = string(c.AppendEncoding(nil))
	return key
}

// random interns a random configuration whose slots are drawn from few
// values, so that two keys' first differing slot falls anywhere.
func (p *keyPool) random(rng *rand.Rand) string {
	return p.key(rng.Intn(12)-6, [3]int{rng.Intn(5), rng.Intn(5), rng.Intn(5)})
}

// byEncoding is the entry order by fingerprint and then encoding, worked
// out from the encodings themselves.
func (p *keyPool) byEncoding(a, b entry) int {
	if c := cmp.Compare(a.fp, b.fp); c != 0 {
		return c
	}
	return bytes.Compare([]byte(p.encs[a.key]), []byte(p.encs[b.key]))
}

// TestKeyTableMatchesMap drives the exact-key set against a
// map[string]uint64 reference on random (fingerprint, ref tuple) streams in
// which many keys share a fingerprint, the zero fingerprint included, so
// both the slots and the shared-fingerprint map are exercised. claim, has,
// len and drainSorted must agree with the reference, drainSorted in the
// order of the configurations' encodings on a fingerprint tie. It also
// pins the aliasing invariant: every key a claim returned is a copy in the
// arena, not the scratch the claim was given, and must read the same
// bytes after 100k more claims, after the set is drained, and after the
// drained set is refilled.
func TestKeyTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pool := newKeyPool()
	// A pool of distinct keys, each with its fingerprint: most of them on
	// a handful of shared fingerprints (0 among them), the rest on their
	// own random one.
	var keys []string
	var fps []uint64
	for len(keys) < 1000 { // of the 1500 configurations random draws from
		k := pool.random(rng)
		if slices.Contains(keys, k) {
			continue
		}
		keys = append(keys, k)
		switch len(keys) % 4 {
		case 0:
			fps = append(fps, uint64(rng.Intn(4))) // 0, 1, 2 or 3: many keys each
		case 1:
			fps = append(fps, uint64(rng.Intn(64))*0x9E3779B97F4A7C15)
		default:
			fps = append(fps, rng.Uint64())
		}
	}

	s := newKeyedSet(4)
	ref := map[string]uint64{}
	var returned, want []string // what claims returned, and the keys
	scratch := make([]uint32, 4)
	claim := func(fp uint64, key string) {
		t.Helper()
		// The key arrives as a view of scratch that the next claim
		// overwrites, as the engine's chunk scratch is.
		view := tupleKey(keyTuple(scratch, key))
		stored, added := s.claim(fp, view)
		_, had := ref[key]
		if added == had {
			t.Fatalf("claim(%#x, %x) added=%v, reference had it: %v", fp, key, added, had)
		}
		if !added {
			if stored != "" {
				t.Fatalf("duplicate claim(%#x, %x) returned %x", fp, key, stored)
			}
			return
		}
		if stored != key || &keyView(stored)[0] == &keyView(view)[0] {
			t.Fatalf("claim(%#x, %x) stored %x, a copy of its own: %t", fp, key, stored, &keyView(stored)[0] != &keyView(view)[0])
		}
		ref[key] = fp
		returned, want = append(returned, stored), append(want, key)
	}
	checkReturned := func(when string) {
		t.Helper()
		for i := range returned {
			if returned[i] != want[i] {
				t.Fatalf("%s: returned key %d reads %x, was %x", when, i, returned[i], want[i])
			}
		}
	}

	for range 20000 {
		i := rng.Intn(len(keys))
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
			t.Fatalf("has(%#x, %x) = %v, reference %v", fps[i], k, got, in)
		}
		if stored, ok := s.keys.lookup(fps[i], k); ok != in || in && stored != k {
			t.Fatalf("lookup(%#x, %x) = %x, %v; reference %v", fps[i], k, stored, ok, in)
		}
	}

	// 100k more claims, every one new: chunks fill and new ones start,
	// the slots grow several times.
	for i := range 100000 {
		claim(uint64(i%1000), pool.key(100+i, [3]int{i % 3, i % 5, i % 7}))
	}
	checkReturned("after 100k more claims")
	if s.len() != len(ref) {
		t.Fatalf("len = %d, reference %d", s.len(), len(ref))
	}

	wantSorted := make([]entry, 0, len(ref))
	for k, fp := range ref {
		wantSorted = append(wantSorted, entry{fp, k})
	}
	slices.SortFunc(wantSorted, pool.byEncoding)
	var got []entry
	if err := s.drainSorted(pool.d, func(fp uint64, key string) error {
		got = append(got, entry{fp, key})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, wantSorted) {
		t.Fatalf("drainSorted returned %d entries, not the reference's %d in (fingerprint, encoding) order", len(got), len(wantSorted))
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
	s = newKeyedSet(4)
	clear(ref)
	for i := range 5000 {
		claim(0, pool.key(-100-i, [3]int{}))
	}
	checkReturned("after the set was replaced")
}

// TestKeyedSetExactReservePresizes: seeding a checkpoint's exact entries
// (SeedVisited) sizes the delta's slots once, before the load, as it does
// a fingerprint table, so the load never grows the table and stays linear
// whatever order the entries arrive in. Under a budget the table is sized
// only for what the budget can take before a flush, its slots and tuples
// charged at what they cost.
func TestKeyedSetExactReservePresizes(t *testing.T) {
	const n = 50000
	var visited entryList
	for i := range n {
		visited.add(uint64(i)*0x9E3779B97F4A7C15, tupleKey([]uint32{uint32(i), 7, 9}))
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
	if want := 1 << 17; len(tab.fps) != want { // 50k entries fill 2^17 slots to 38%
		t.Errorf("seeded table has %d slots, want %d", len(tab.fps), want)
	}
	if got, want := st.delta.bytes(), int64(12<<17+4*tab.arena.words); got != want || tab.arena.words < 3*n {
		t.Errorf("seeded table charged %d bytes for %d arena words, want %d", got, tab.arena.words, want)
	}

	// The same load claimed without a reservation grows the table from
	// its initial size: the counter does see growth.
	plain := newKeyedSet(3)
	for i := range visited.fps {
		plain.add(visited.fps[i], visited.key(i))
	}
	if plain.keys.grows == 0 {
		t.Fatal("an unreserved load of 50k entries never grew the table")
	}

	// Under a budget the table is sized for no more entries than its
	// slots and tuples take within the budget.
	const budget = 64 << 10
	d := newKeyedSet(3)
	fit := d.reserve(n, budget)
	if fit < 1 || fit >= n || int64(12*len(d.keys.fps)+12*fit) > budget || fit*10 > len(d.keys.fps)*7 {
		t.Errorf("reserve(%d, %d) = %d entries on %d slots", n, budget, fit, len(d.keys.fps))
	}
	if fit < budget/(12+12)/2 {
		t.Errorf("reserve(%d, %d) = %d: a %d-byte budget holds more 12-byte tuples than that", n, budget, fit, budget)
	}
}

// TestTupleArenaChunks: the arena's chunks double from tupleFirst tuples
// to about tupleChunkBytes, then stay that size, and every tuple reads
// back where it was written, for strides that make the full-size chunk
// large and small.
func TestTupleArenaChunks(t *testing.T) {
	for _, stride := range []int{1, 4, 7, 300, 5000} {
		a := newTupleArena(stride)
		n := 3*(1<<a.capBits) + 5
		if stride > 1000 {
			n = 200
		}
		keys := make([]string, n)
		for i := range n {
			tuple := make([]uint32, stride)
			tuple[stride-1], tuple[0] = uint32(3*i), uint32(i)
			stored, at := a.add(tupleKey(tuple))
			if int(at) != i || stored != tupleKey(tuple) {
				t.Fatalf("stride %d: tuple %d stored at %d", stride, i, at)
			}
			keys[i] = stored
		}
		for i, k := range keys {
			if a.key(uint32(i)) != k || keyRef(k, 0) != uint32(i) || stride > 1 && keyRef(k, stride-1) != uint32(3*i) {
				t.Fatalf("stride %d: tuple %d reads back %v", stride, i, keyTuple(make([]uint32, stride), a.key(uint32(i)))[:1])
			}
		}
		for k, c := range a.chunks {
			want := 1 << a.capBits
			if k < a.capBits-tupleFirstBits {
				want = tupleFirst << k
			}
			if len(c) != want*stride {
				t.Fatalf("stride %d: chunk %d holds %d words, want %d tuples", stride, k, len(c), want)
			}
		}
		if words := 4 * (1 << a.capBits) * stride; stride < 1000 && words > 2*tupleChunkBytes {
			t.Fatalf("stride %d: a full-size chunk is %d bytes", stride, words)
		}
	}
}
