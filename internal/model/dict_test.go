package model

import (
	"fmt"
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
// equal, resolving with encodings still finds each configuration's slots
// under its own encodings, never another's that shares the hash, and a
// hash nothing was interned under is a miss. The same holds through a
// SlotCache, which skips the slots it holds: resolving a, b, a, b through
// one cache must give each its own, as a hash match alone never counts as
// a slot held.
func TestDictResolveDegenerateHashes(t *testing.T) {
	degenerateSlotHash = true
	defer func() { degenerateSlotHash = false }()

	p := slotsTestProto{n: 2}
	a := MustNewConfig(p, []int{0, 0})
	b := a.Clone()
	b.Objects[1] = Int(5)
	b.States[0] = slotsSt{tag: "other"}
	d := NewDict(p)
	split := func(c *Config) ([]uint64, [][]byte) {
		slotH := make([]uint64, len(c.Objects)+len(c.States))
		refs := make([]uint32, len(slotH))
		d.Intern(c, refs)
		for i, ref := range refs {
			slotH[i] = d.SlotHash(i, ref)
		}
		spans, err := SlotSpans(c.AppendEncoding(nil), len(c.Objects), len(c.States), nil)
		if err != nil {
			t.Fatal(err)
		}
		return slotH, spans
	}
	ah, as := split(a)
	bh, _ := split(b)
	if !slices.Equal(ah, bh) {
		t.Fatalf("the seam left distinct slot hashes %v and %v", ah, bh)
	}
	blank := func() *Config {
		return &Config{Objects: make([]Value, len(a.Objects)), States: make([]State, len(a.States))}
	}

	for _, viaCache := range []bool{false, true} {
		var out SlotCache
		for _, c := range []*Config{a, b, a, b} {
			slotH, spans := split(c)
			refs := make([]uint32, len(slotH))
			if !viaCache {
				out = SlotCache{}
			}
			got := blank()
			miss := d.Resolve(refs, slotH, spans, &out)
			if miss == -1 {
				d.Materialise(refs, got)
			}
			if miss != -1 || got.Key() != c.Key() {
				t.Errorf("cache %t: resolved %q (miss %d), interned %q", viaCache, got.Key(), miss, c.Key())
			}
		}

		other := slices.Repeat([]uint64{1}, len(ah))
		if miss := d.Resolve(make([]uint32, len(ah)), other, as, &out); miss != 0 {
			t.Errorf("cache %t: an un-interned hash resolves with miss %d, want 0", viaCache, miss)
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
	if miss := d.Resolve(got, slotH, nil, &out); miss != -1 || !slices.Equal(got, refs) {
		t.Fatalf("resolved %v (miss %d), want %v", got, miss, refs)
	}
	empty := NewDict(p)
	if miss := empty.Resolve(make([]uint32, len(refs)), slotH, nil, &SlotCache{}); miss != 0 {
		t.Fatalf("an empty dictionary resolved a's slots without a cache: miss %d", miss)
	}
	// Every slot comes from the cache, which the empty dictionary cannot
	// have answered.
	got = make([]uint32, len(refs))
	if miss := empty.Resolve(got, slotH, nil, &out); miss != -1 || !slices.Equal(got, refs) {
		t.Fatalf("through the cache: %v (miss %d), want %v", got, miss, refs)
	}
	// Only the last slot's hash changes, to one nothing was interned
	// under: every slot before it comes from the cache, the last misses.
	next := slices.Clone(slotH)
	next[len(next)-1] ^= 1
	if miss := empty.Resolve(make([]uint32, len(refs)), next, nil, &out); miss != len(next)-1 {
		t.Fatalf("miss %d, want %d", miss, len(next)-1)
	}
}
