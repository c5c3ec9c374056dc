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

// TestKeyTableMatchesMap drives the visited table under exact keys
// against a map[string]uint64 reference on random (fingerprint, ref tuple)
// streams in which many keys share a fingerprint, the zero fingerprint
// included, so both the slots and the shared-fingerprint map are
// exercised. claim, find, has, len and drainSorted must agree with the
// reference, drainSorted in the order of the configurations' encodings on
// a fingerprint tie, and claim and find must name an entry by its order
// of arrival, a duplicate by the index its first claim returned. It also
// pins the aliasing invariant: every key a claim stored is a copy in the
// arena, not the scratch the claim was given, and must read the same
// bytes after 100k more claims, after the set is drained, and after the
// drained set is refilled. Under fingerprint keys (stride 0) the same
// table, with entry indices and without, must agree with a
// map[uint64]bool reference, the zero fingerprint included, and hold no
// tuple.
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

	s := newKeyTable(4, false)
	ref := map[string]uint64{}
	index := map[string]uint32{} // the entry index each claim of a key returns
	var returned, want []string  // what claims returned, and the keys
	scratch := make([]uint32, 4)
	claim := func(fp uint64, key string) {
		t.Helper()
		// The key arrives as a view of scratch that the next claim
		// overwrites, as the engine's chunk scratch is.
		view := tupleKey(keyTuple(scratch, key))
		at, added := s.claim(fp, view)
		_, had := ref[key]
		if added == had {
			t.Fatalf("claim(%#x, %x) added=%v, reference had it: %v", fp, key, added, had)
		}
		if !added {
			if at != index[key] {
				t.Fatalf("duplicate claim(%#x, %x) returned index %d, the entry's is %d", fp, key, at, index[key])
			}
			return
		}
		stored := s.key(at)
		if at != uint32(len(ref)) || stored != key || &keyView(stored)[0] == &keyView(view)[0] {
			t.Fatalf("claim(%#x, %x) took index %d of %d, stored %x, a copy of its own: %t", fp, key, at, len(ref), stored, &keyView(stored)[0] != &keyView(view)[0])
		}
		ref[key], index[key] = fp, at
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
	zeros := 0
	for _, sh := range s.idx.shared {
		if sh.fp == 0 {
			zeros++
		}
	}
	if len(s.idx.shared) == zeros || zeros == 0 {
		t.Fatalf("%d keys went to the shared-fingerprint map, %d of them at fingerprint 0: the stream forces several keys onto fingerprints 0 to 3", len(s.idx.shared), zeros)
	}
	for i, k := range keys {
		_, in := ref[k]
		if got := s.has(fps[i], k); got != in {
			t.Fatalf("has(%#x, %x) = %v, reference %v", fps[i], k, got, in)
		}
		if at, ok, _ := s.find(fps[i], k); ok != in || in && (at != index[k] || s.key(at) != k) {
			t.Fatalf("find(%#x, %x) = %d, %v; reference %d, %v", fps[i], k, at, ok, index[k], in)
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

	// The drained set takes the same keys again, on chunks of its own,
	// numbered from 0 again.
	clear(ref)
	clear(index)
	for i, k := range keys {
		claim(fps[i], k)
	}
	checkReturned("after the drained set was refilled")
	s = newKeyTable(4, false)
	clear(ref)
	clear(index)
	for i := range 5000 {
		claim(0, pool.key(-100-i, [3]int{}))
	}
	checkReturned("after the set was replaced")

	// Fingerprint keys: every key is "", the fingerprint is the entry. A
	// table without entry indices and one with them (a provenance run's
	// delta) take the same stream; the indexed one numbers its entries in
	// order of arrival, the zero fingerprint's included.
	fp, ix := newKeyTable(0, false), newKeyTable(0, true)
	fpRef := map[uint64]bool{}
	fpIndex := map[uint64]uint32{}
	for range 50000 {
		x := uint64(rng.Intn(4)) // 0 to 3 often, 0 among them
		if rng.Intn(2) == 0 {
			x = rng.Uint64() >> uint(rng.Intn(48))
		}
		at, added := fp.claim(x, "")
		if added == fpRef[x] || fp.key(at) != "" {
			t.Fatalf("claim(%#x) = %d, %v; reference had it: %v", x, at, added, fpRef[x])
		}
		at, added = ix.claim(x, "")
		want, had := fpIndex[x]
		if !had {
			want = uint32(len(fpIndex))
			fpIndex[x] = want
		}
		if added == had || at != want {
			t.Fatalf("indexed claim(%#x) = %d, %v; reference: index %d, had it: %v", x, at, added, want, had)
		}
		fpRef[x] = true
	}
	if !fpRef[0] || fp.len() != len(fpRef) || fp.idx.at != nil || fp.arena.words != 0 || ix.len() != len(fpRef) || ix.idx.at == nil || ix.arena.words != 0 {
		t.Fatalf("len = %d and %d, reference %d (zero drawn: %t); %d and %d arena words", fp.len(), ix.len(), len(fpRef), fpRef[0], fp.arena.words, ix.arena.words)
	}
	for x := range uint64(100) {
		if at, ok, _ := ix.find(x, ""); ok != fpRef[x] || ok && at != fpIndex[x] || fp.has(x, "") != fpRef[x] {
			t.Fatalf("find(%#x) = %d, %v; reference %d, %v", x, at, ok, fpIndex[x], fpRef[x])
		}
	}
	var drained []uint64
	if err := fp.drainSorted(nil, func(x uint64, key string) error {
		if key != "" {
			t.Fatalf("drained %#x with key %q", x, key)
		}
		drained = append(drained, x)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(drained) != len(fpRef) || !slices.IsSorted(drained) || drained[0] != 0 {
		t.Fatalf("drained %d fingerprints (sorted %t), reference %d", len(drained), slices.IsSorted(drained), len(fpRef))
	}
}

// TestKeyTableExactReservePresizes: seeding a checkpoint's exact entries
// (SeedVisited) sizes the delta's slots once, before the load, as it does
// one under fingerprint keys, so the load never grows the table and stays linear
// whatever order the entries arrive in. Under a budget the table is sized
// only for what the budget can take before a flush, its slots and tuples
// charged at what they cost.
func TestKeyTableExactReservePresizes(t *testing.T) {
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
	tab := st.delta
	if tab.idx.grows != 0 {
		t.Errorf("seeding %d exact entries grew the table %d times, want a single presize", n, tab.idx.grows)
	}
	if got := st.delta.len(); got != n {
		t.Errorf("seeded %d entries, want %d", got, n)
	}
	if want := 1 << 17; len(tab.idx.fps) != want { // 50k entries fill 2^17 slots to 38%
		t.Errorf("seeded table has %d slots, want %d", len(tab.idx.fps), want)
	}
	// Entry 0's fingerprint is 0, which no slot holds: it is the one
	// shared entry.
	if got, want := st.delta.bytes(), int64(12<<17+4*tab.arena.words+sharedEntryBytes); got != want || tab.arena.words < 3*n {
		t.Errorf("seeded table charged %d bytes for %d arena words, want %d", got, tab.arena.words, want)
	}

	// The same load claimed without a reservation grows the table from
	// its initial size: the counter does see growth.
	plain := newKeyTable(3, false)
	for i := range visited.fps {
		plain.claim(visited.fps[i], visited.key(i))
	}
	if plain.idx.grows == 0 {
		t.Fatal("an unreserved load of 50k entries never grew the table")
	}

	// Under a budget the table is sized for no more entries than its
	// slots and tuples take within the budget.
	const budget = 64 << 10
	d := newKeyTable(3, false)
	fit := d.reserve(n, budget)
	if fit < 1 || fit >= n || int64(12*len(d.idx.fps)+12*fit) > budget || fit*10 > len(d.idx.fps)*7 {
		t.Errorf("reserve(%d, %d) = %d entries on %d slots", n, budget, fit, len(d.idx.fps))
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

// The visited table under fingerprint keys (stride 0) is a set of
// fingerprints: fpAdd and fpHas are its claim and has.

func fpAdd(s *keyTable, fp uint64) bool {
	_, added := s.claim(fp, "")
	return added
}

func fpHas(s *keyTable, fp uint64) bool { return s.has(fp, "") }

// TestKeyTableFingerprints drives the visited table at stride 0 against
// a reference map, covering the zero-fingerprint sentinel and growth
// across several doublings.
func TestKeyTableFingerprints(t *testing.T) {
	s := newKeyTable(0, false)
	ref := map[uint64]bool{}
	rng := rand.New(rand.NewSource(1))

	insert := func(fp uint64) {
		t.Helper()
		added := fpAdd(s, fp)
		if added == ref[fp] {
			t.Fatalf("claim(%#x) = %v with ref present=%v", fp, added, ref[fp])
		}
		ref[fp] = true
	}

	insert(0) // zero is a representable fingerprint, not the empty sentinel
	if !fpHas(s, 0) {
		t.Fatal("has(0) = false after claim(0)")
	}
	if fpAdd(s, 0) {
		t.Fatal("claim(0) reported newly-added twice")
	}

	for i := 0; i < 20000; i++ {
		fp := rng.Uint64() >> uint(rng.Intn(40)) // skewed: force probe collisions
		insert(fp)
		insert(fp) // immediate duplicate must report already-present
	}
	if s.len() != len(ref) {
		t.Fatalf("len = %d, want %d", s.len(), len(ref))
	}
	for fp := range ref {
		if !fpHas(s, fp) {
			t.Fatalf("has(%#x) = false for inserted fingerprint", fp)
		}
	}
	for i := 0; i < 1000; i++ {
		fp := rng.Uint64()
		if !ref[fp] && fpHas(s, fp) {
			t.Fatalf("has(%#x) = true for absent fingerprint", fp)
		}
	}
}

// TestKeyTableGrowthBoundary pins the rehash trigger exactly: the table
// doubles when the load passes 70%, not at, and every member survives
// each rehash — including the out-of-band zero fingerprint, which must
// never occupy (or be counted against) a slot.
func TestKeyTableGrowthBoundary(t *testing.T) {
	s := newKeyTable(0, false)
	if got := len(s.idx.fps); got != keyTableSlots {
		t.Fatalf("initial slots = %d, want %d", got, keyTableSlots)
	}
	threshold := len(s.idx.fps) * 7 / 10 // last count that does NOT grow

	fpAdd(s, 0) // tracked out of band: contributes to len, never to load
	for i := 1; i <= threshold; i++ {
		fpAdd(s, uint64(i)*0x9E3779B97F4A7C15)
	}
	if got := len(s.idx.fps); got != keyTableSlots {
		t.Fatalf("slots = %d after %d inserts (70%% load), want no growth yet", got, threshold)
	}
	if s.len() != threshold+1 {
		t.Fatalf("len = %d, want %d", s.len(), threshold+1)
	}

	fpAdd(s, uint64(threshold+1)*0x9E3779B97F4A7C15) // crosses 70%
	if got := len(s.idx.fps); got != 2*keyTableSlots {
		t.Fatalf("slots = %d after crossing the load threshold, want %d", got, 2*keyTableSlots)
	}
	// Everything must survive the rehash, zero included.
	if !fpHas(s, 0) {
		t.Fatal("zero fingerprint lost across grow")
	}
	for i := 1; i <= threshold+1; i++ {
		if !fpHas(s, uint64(i)*0x9E3779B97F4A7C15) {
			t.Fatalf("fingerprint %d lost across grow", i)
		}
	}
	if s.len() != threshold+2 {
		t.Fatalf("len = %d after grow, want %d", s.len(), threshold+2)
	}
	// A slot costs 8 bytes and holds no tuple; the zero fingerprint is
	// charged as the one shared entry it is.
	if got, want := s.bytes(), int64(8*2*keyTableSlots+sharedEntryBytes); s.idx.at != nil || got != want {
		t.Fatalf("bytes = %d with tuples %t, want %d and none", got, s.idx.at != nil, want)
	}
}

// members enumerates s the way the stores do, through forEach.
func members(s *keyTable) []uint64 {
	var out []uint64
	s.forEach(func(fp uint64, _ string) { out = append(out, fp) })
	return out
}

// TestKeyTableAppendAll: the stores' enumeration (forEach) returns every
// member exactly once (zero included) at every size around a growth
// boundary.
func TestKeyTableAppendAll(t *testing.T) {
	s := newKeyTable(0, false)
	want := map[uint64]bool{}
	add := func(fp uint64) {
		fpAdd(s, fp)
		want[fp] = true
	}
	add(0)
	trigger := keyTableSlots*7/10 + 1 // the insert that grows the table
	for i := 1; i <= trigger+3; i++ {
		add(uint64(i) << 13)
		if i >= trigger-1 && i <= trigger+1 || i == trigger+3 {
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
func maxDisplacement(s *keyTable) uint64 {
	var worst uint64
	for i, fp := range s.idx.fps {
		if fp != 0 {
			worst = max(worst, (uint64(i)-probeStart(fp, s.idx.shift))&s.idx.mask)
		}
	}
	return worst
}

// TestKeyTableReservedBulkLoad pins what keeps checkpoint seeding linear: a
// table-order dump (forEach) loaded into a table that reserved for it first never grows and probes
// no further than the table it was dumped from. Loading the same stream
// into an unreserved set is the anti-pattern reserve documents — every
// insert then walks one ever-longer cluster, seconds at this size and
// quadratic beyond — so it is described here, not timed.
func TestKeyTableReservedBulkLoad(t *testing.T) {
	const n = 200000
	src := newKeyTable(0, false)
	rng := rand.New(rand.NewSource(7))
	fpAdd(src, 0)
	for src.len() < n {
		fpAdd(src, rng.Uint64())
	}
	dump := members(src)

	dst := newKeyTable(0, false)
	dst.reserve(len(dump), 0)
	slots := len(dst.idx.fps)
	if slots != len(src.idx.fps) {
		t.Fatalf("reserve(%d) sized the table to %d slots; growing to %d members sized it to %d", n, slots, n, len(src.idx.fps))
	}
	for _, fp := range dump {
		if !fpAdd(dst, fp) {
			t.Fatalf("claim(%#x) reported a duplicate in a duplicate-free dump", fp)
		}
	}
	if len(dst.idx.fps) != slots || dst.idx.grows != 0 {
		t.Fatalf("the reserved table grew from %d to %d slots during the load", slots, len(dst.idx.fps))
	}
	if dst.len() != n {
		t.Fatalf("len = %d after the load, want %d", dst.len(), n)
	}
	// 200k random members in 2^19 slots (38% load): the longest probe
	// sequence is a few dozen slots, not the thousands a cluster built by
	// an unreserved load reaches.
	if got, was := maxDisplacement(dst), maxDisplacement(src); got > was || got > 64 {
		t.Fatalf("longest probe sequence after the reserved load = %d slots (source table %d), want <= source and <= 64", got, was)
	}

	// Reserving on a populated table rehashes it once, losing nothing.
	dst.reserve(4*n, 0)
	if len(dst.idx.fps) <= slots {
		t.Fatalf("reserve(%d) on %d members left the table at %d slots", 4*n, n, len(dst.idx.fps))
	}
	slots = len(dst.idx.fps)
	for _, fp := range dump {
		if !fpHas(dst, fp) {
			t.Fatalf("fingerprint %#x lost across reserve", fp)
		}
	}
	for dst.len() < 5*n {
		fpAdd(dst, rng.Uint64())
	}
	if len(dst.idx.fps) != slots {
		t.Fatalf("the table grew from %d to %d slots within its reservation", slots, len(dst.idx.fps))
	}

	// Under a budget the table takes what fills the largest table the
	// budget holds to 70%: 2^13 8-byte slots in 64 KB.
	if fit := newKeyTable(0, false).reserve(n, 64<<10); fit != 8192*7/10 {
		t.Fatalf("reserve(%d, 64 KB) = %d entries, want %d", n, fit, 8192*7/10)
	}
}

// TestKeyTablePartitionedLowBits inserts fingerprints that all share their
// low bits — the population a table sees when its caller routes by them —
// across several growths.
func TestKeyTablePartitionedLowBits(t *testing.T) {
	s := newKeyTable(0, false)
	const low = 0x2a
	for i := uint64(1); i <= 50000; i++ {
		fp := i<<6 | low
		if !fpAdd(s, fp) {
			t.Fatalf("claim(%#x) reported duplicate on first insert", fp)
		}
		if !fpHas(s, fp) {
			t.Fatalf("has(%#x) = false immediately after claim", fp)
		}
	}
	if s.len() != 50000 {
		t.Fatalf("len = %d, want 50000", s.len())
	}
	if fpHas(s, 1<<6|0x2b) {
		t.Fatal("has reported a fingerprint from another partition")
	}
}

// TestKeyTableDrainSorted: a drained table returns every member once, in
// ascending order, the out-of-band zero fingerprint included, on both
// sides of the radix sort's cutover.
func TestKeyTableDrainSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 100, radixMin - 1, radixMin, 50000} {
		for _, zero := range []bool{false, true} {
			s := newKeyTable(0, false)
			var want []uint64
			for len(want) < n {
				if fp := rng.Uint64(); fp != 0 && fpAdd(s, fp) {
					want = append(want, fp)
				}
			}
			if zero {
				fpAdd(s, 0)
				want = append(want, 0)
			}
			slices.Sort(want)
			var got []uint64
			s.drainSorted(nil, func(fp uint64, key string) error {
				got = append(got, fp)
				return nil
			})
			if !slices.Equal(got, want) {
				t.Errorf("n=%d zero=%t: drained %d members (sorted %t), want %d", n, zero, len(got), slices.IsSorted(got), len(want))
			}
			if s.len() != 0 || len(s.idx.fps) != keyTableSlots || fpHas(s, 0) {
				t.Errorf("n=%d zero=%t: the drained table holds %d entries on %d slots", n, zero, s.len(), len(s.idx.fps))
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
