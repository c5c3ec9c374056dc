package model

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestDictConcurrentInterning: four goroutines intern overlapping values
// and states into one dictionary and hand the refs they got to each other
// through channels. Every encoding gets one ref whoever interned it, and
// every ref — read by a goroutine that did not intern it, with no lock —
// gives back its encoding, content hash and a canonical object of that
// encoding. It runs with real hashes and again with every hash forced
// equal, where the refs rest on the bytes alone; and a hash nothing was
// interned under resolves to nothing.
func TestDictConcurrentInterning(t *testing.T) {
	for _, degenerate := range []bool{false, true} {
		t.Run(fmt.Sprintf("degenerate=%t", degenerate), func(t *testing.T) {
			degenerateSlotHash = degenerate
			defer func() { degenerateSlotHash = false }()
			const workers, items = 4, 300
			value := func(i int) Value { return Pair{First: Int(i % 37), Second: Vec{i % 5, i % 3}} }
			state := func(i int) State { return slotsSt{tag: fmt.Sprint("s", i%41)} }

			d := NewDict(slotsTestProto{n: 1})
			const stateSlot = 4 // after slotsTestProto's four objects
			type got struct{ item, vref, sref uint32 }
			chans := make([]chan got, workers)
			for w := range chans {
				chans[w] = make(chan got, items)
			}
			var wg sync.WaitGroup
			errs := make(chan error, workers*items)
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Each worker interns the items from its own offset on,
					// so every encoding is met by several of them at once.
					for j := range items {
						i := (j + w*items/workers) % items
						g := got{uint32(i), d.InternValue(value(i)), d.InternState(state(i))}
						chans[(w+1)%workers] <- g
					}
					close(chans[(w+1)%workers])
				}()
			}
			refs := make([][]got, workers)
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for g := range chans[w] {
						refs[w] = append(refs[w], g)
						venc := appendValue(nil, value(int(g.item)))
						senc := appendState(nil, state(int(g.item)))
						if e := d.vals.at(g.vref); e.enc != string(venc) || e.h != hashEncoding(venc) || string(appendValue(nil, e.obj)) != string(venc) {
							errs <- fmt.Errorf("value ref %d of item %d reads %q hash %#x, want %q", g.vref, g.item, e.enc, e.h, venc)
						}
						if d.SlotHash(stateSlot, g.sref) != hashEncoding(senc) || d.slotEnc(stateSlot, g.sref) != string(senc) || d.state(g.sref).Key() != state(int(g.item)).Key() {
							errs <- fmt.Errorf("state ref %d of item %d reads %q, want %q", g.sref, g.item, d.slotEnc(stateSlot, g.sref), senc)
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// One ref per encoding, whichever worker interned it.
			vref, sref := map[string]uint32{}, map[string]uint32{}
			one := func(m map[string]uint32, enc []byte, ref uint32) {
				if prev, ok := m[string(enc)]; ok && prev != ref {
					t.Fatalf("encoding %q has refs %d and %d", enc, prev, ref)
				}
				m[string(enc)] = ref
			}
			for _, gs := range refs {
				if len(gs) != items {
					t.Fatalf("a worker received %d refs, want %d", len(gs), items)
				}
				for _, g := range gs {
					one(vref, appendValue(nil, value(int(g.item))), g.vref)
					one(sref, appendState(nil, state(int(g.item))), g.sref)
				}
			}
			if values, states := d.Len(); values != len(vref) || states != len(sref) {
				t.Fatalf("dictionary holds %d values and %d states, the workers met %d and %d encodings", values, states, len(vref), len(sref))
			}

			// Exact resolution picks the byte-equal entry, also when every
			// entry shares the hash.
			for enc, want := range vref {
				if ref, ok := d.resolve(0, hashEncoding([]byte(enc)), []byte(enc)); !ok || ref != want {
					t.Fatalf("value %q resolves to %d (%t), interned as %d", enc, ref, ok, want)
				}
			}
			for enc, want := range sref {
				if ref, ok := d.resolve(stateSlot, hashEncoding([]byte(enc)), []byte(enc)); !ok || ref != want {
					t.Fatalf("state %q resolves to %d (%t), interned as %d", enc, ref, ok, want)
				}
			}
			// A hash nothing was interned under, and bytes nothing was
			// interned as, are misses.
			if ref, ok := d.resolve(0, 1, nil); ok {
				t.Errorf("an un-interned hash resolves to ref %d", ref)
			}
			if ref, ok := d.resolve(stateSlot, hashEncoding([]byte("never")), []byte("never")); ok {
				t.Errorf("un-interned bytes resolve to ref %d", ref)
			}
		})
	}
}

// TestDictResolveDegenerateHashes: with every slot content hash forced
// equal, interning a configuration's slot encodings (InternEncodings, how a
// resumed exact-key run reads its checkpoint's keys) finds each
// configuration's slots under its own encodings, never another's that
// shares the hash. The same holds through a SlotCache, which skips the
// slots it holds: interning a, b, a, b through one cache must give each its
// own, as a hash match alone never counts as a slot held. Encodings the
// dictionary has never met become bare entries, and the first real intern
// of such an encoding attaches its object under the same ref.
func TestDictResolveDegenerateHashes(t *testing.T) {
	degenerateSlotHash = true
	defer func() { degenerateSlotHash = false }()

	p := slotsTestProto{n: 2}
	a := MustNewConfig(p, []int{0, 0})
	b := a.Clone()
	b.Objects[1] = Int(5)
	b.States[0] = slotsSt{tag: "other"}
	d := NewDict(p)
	split := func(c *Config) ([]uint32, [][]byte) {
		refs := make([]uint32, len(c.Objects)+len(c.States))
		d.Intern(c, refs)
		spans, err := SlotSpans(c.AppendEncoding(nil), len(c.Objects), len(c.States), nil)
		if err != nil {
			t.Fatal(err)
		}
		return refs, spans
	}
	ar, _ := split(a)
	br, _ := split(b)
	for i := range ar {
		if d.SlotHash(i, ar[i]) != d.SlotHash(i, br[i]) {
			t.Fatalf("the seam left distinct slot hashes at slot %d", i)
		}
	}
	blank := func() *Config {
		return &Config{Objects: make([]Value, len(a.Objects)), States: make([]State, len(a.States))}
	}

	values, states := d.Len()
	for _, viaCache := range []bool{false, true} {
		var out SlotCache
		for _, c := range []*Config{a, b, a, b} {
			want, spans := split(c)
			if !viaCache {
				out = SlotCache{}
			}
			refs := make([]uint32, len(want))
			d.InternEncodings(refs, spans, &out)
			got := blank()
			d.Materialise(refs, got)
			if !slices.Equal(refs, want) || got.Key() != c.Key() {
				t.Errorf("cache %t: encodings intern to %v (%q), the configuration to %v (%q)", viaCache, refs, got.Key(), want, c.Key())
			}
		}
	}
	if v, s := d.Len(); v != values || s != states {
		t.Fatalf("interning known encodings grew the dictionary from %d/%d to %d/%d entries", values, states, v, s)
	}

	// A configuration met only as encodings: bare entries, attached by the
	// first real intern.
	e := a.Clone()
	e.Objects[0] = Int(9)
	e.States[1] = slotsSt{tag: "fresh"}
	spans, err := SlotSpans(e.AppendEncoding(nil), len(e.Objects), len(e.States), nil)
	if err != nil {
		t.Fatal(err)
	}
	bare := make([]uint32, len(spans))
	d.InternEncodings(bare, spans, &SlotCache{})
	if v, s := d.Len(); v != values+1 || s != states+1 {
		t.Fatalf("two new encodings took %d values and %d states, want one each", v-values, s-states)
	}
	if !d.vals.at(bare[0]).bare || !d.sts.at(bare[len(bare)-1]).bare {
		t.Fatal("an encoding interned alone has an object")
	}
	if enc := d.AppendEncoding(nil, bare); string(enc) != string(e.AppendEncoding(nil)) {
		t.Fatalf("bare entries encode %q, want %q", enc, e.AppendEncoding(nil))
	}
	real := make([]uint32, len(bare))
	d.Intern(e, real)
	got := blank()
	d.Materialise(real, got)
	if !slices.Equal(real, bare) || got.Key() != e.Key() || d.vals.at(bare[0]).bare || d.sts.at(bare[len(bare)-1]).bare {
		t.Fatalf("interning the configuration gave %v (%q), the bare entries were %v", real, got.Key(), bare)
	}
}

// TestCompareSlotIsEncodingOrder: ordering two configurations by the
// encodings of their first slot whose refs differ is bytes.Compare of their
// whole encodings, on random configurations whose slots share most values
// (so the first difference falls anywhere) and whose values and states have
// encodings of different lengths, one a prefix of another's payload.
func TestCompareSlotIsEncodingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := slotsTestProto{n: 3}
	d := NewDict(p)
	values := []Value{Int(0), Int(1), Int(-1), Int(300), Nil{}, Pair{First: Int(1), Second: Int(2)}, Pair{First: Int(1), Second: Nil{}}, Vec{1}, Vec{1, 2}}
	states := []State{slotsSt{tag: "a"}, slotsSt{tag: "ab"}, slotsSt{tag: "b"}, slotsSt{tag: ""}}
	random := func() *Config {
		c := MustNewConfig(p, []int{0, 0, 0})
		for i := range c.Objects {
			c.Objects[i] = values[rng.Intn(len(values))]
		}
		for i := range c.States {
			c.States[i] = states[rng.Intn(len(states))]
		}
		return c
	}
	compare := func(a, b []uint32) int {
		for i := range a {
			if a[i] != b[i] {
				return d.CompareSlot(i, a[i], b[i])
			}
		}
		return 0
	}
	for range 5000 {
		x, y := random(), random()
		xr, yr := make([]uint32, len(x.Objects)+len(x.States)), make([]uint32, len(y.Objects)+len(y.States))
		d.Intern(x, xr)
		d.Intern(y, yr)
		if got, want := compare(xr, yr), bytes.Compare(x.AppendEncoding(nil), y.AppendEncoding(nil)); got != want {
			t.Fatalf("%q vs %q: slot order %d, encoding order %d", x.Key(), y.Key(), got, want)
		}
	}
}

// TestSlotCacheSkipsHeldSlots: through a fingerprint-keyed cache (no
// encodings) Resolve looks up only the slots it does not hold. A slot is
// held by hash at its own index alone; resolving against an empty
// dictionary tells a lookup (a miss) from a skip.
func TestSlotCacheSkipsHeldSlots(t *testing.T) {
	p := slotsTestProto{n: 2}
	a := MustNewConfig(p, []int{0, 0})
	d := NewDict(p)
	refs := make([]uint32, len(a.Objects)+len(a.States))
	d.Intern(a, refs)
	slotH := make([]uint64, len(refs))
	for i, ref := range refs {
		slotH[i] = d.SlotHash(i, ref)
	}

	var out SlotCache
	got := make([]uint32, len(refs))
	if miss := d.Resolve(got, slotH, &out); miss != -1 || !slices.Equal(got, refs) {
		t.Fatalf("resolved %v (miss %d), want %v", got, miss, refs)
	}
	empty := NewDict(p)
	if miss := empty.Resolve(make([]uint32, len(refs)), slotH, &SlotCache{}); miss != 0 {
		t.Fatalf("an empty dictionary resolved a's slots without a cache: miss %d", miss)
	}
	// Every slot comes from the cache, which the empty dictionary cannot
	// have answered.
	got = make([]uint32, len(refs))
	if miss := empty.Resolve(got, slotH, &out); miss != -1 || !slices.Equal(got, refs) {
		t.Fatalf("through the cache: %v (miss %d), want %v", got, miss, refs)
	}
	// Only the last slot's hash changes, to one nothing was interned
	// under: every slot before it comes from the cache, the last misses.
	next := slices.Clone(slotH)
	next[len(next)-1] ^= 1
	if miss := empty.Resolve(make([]uint32, len(refs)), next, &out); miss != len(next)-1 {
		t.Fatalf("miss %d, want %d", miss, len(next)-1)
	}
}
