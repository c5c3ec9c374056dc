package model

import (
	"slices"
	"testing"
)

// TestSlotExchangeDegenerateHashes: with every slot content hash forced
// equal, an exchange matching on encodings still resolves each
// configuration's slots to the canonical objects interned under its own
// encodings, never to another's that shares the hash, and a hash nothing
// was interned under is a miss. The same holds through a SlotCache, which
// skips the slots it holds: interning b after a through one cache must
// still intern b's slots, and resolving a, b, a, b through one cache must
// give each its own, as a hash match alone never counts as a slot held.
func TestSlotExchangeDegenerateHashes(t *testing.T) {
	degenerateSlotHash = true
	defer func() { degenerateSlotHash = false }()

	p := slotsTestProto{n: 2}
	a := MustNewConfig(p, []int{0, 0})
	b := a.Clone()
	b.Objects[1] = Int(5)
	b.States[0] = slotsSt{tag: "other"}
	st := NewStepper(p)
	split := func(c *Config) ([]uint64, [][]byte) {
		slotH := make([]uint64, st.Slots())
		st.InitSlots(c, slotH)
		spans, err := SlotSpans(c.AppendEncoding(nil), len(c.Objects), len(c.States), nil)
		if err != nil {
			t.Fatal(err)
		}
		return slotH, spans
	}
	ah, as := split(a)
	bh, bs := split(b)
	if !slices.Equal(ah, bh) {
		t.Fatalf("the seam left distinct slot hashes %v and %v", ah, bh)
	}
	blank := func() *Config {
		return &Config{Objects: make([]Value, len(a.Objects)), States: make([]State, len(a.States))}
	}

	for _, viaCache := range []bool{false, true} {
		var in, out *SlotCache
		if viaCache {
			in, out = &SlotCache{}, &SlotCache{}
		}
		ex := NewSlotExchange()
		ex.Intern(a, ah, as, in)
		ex.Intern(b, bh, bs, in)
		for _, c := range []*Config{a, b, a, b} {
			slotH, spans := split(c)
			got := blank()
			if miss := ex.Resolve(got, slotH, spans, out); miss != -1 || got.Key() != c.Key() {
				t.Errorf("cache %t: resolved %q (miss %d), interned %q", viaCache, got.Key(), miss, c.Key())
			}
		}

		other := slices.Repeat([]uint64{1}, len(ah))
		if miss := ex.Resolve(blank(), other, as, out); miss != 0 {
			t.Errorf("cache %t: an un-interned hash resolves with miss %d, want 0", viaCache, miss)
		}
	}
}

// TestSlotCacheSkipsHeldSlots: through a fingerprint-keyed cache (no
// encodings) Intern and Resolve look up only the slots it does not hold.
// A slot is held by hash at its own index alone; what the exchange holds
// afterwards, or where a resolve misses, tells a lookup from a skip.
func TestSlotCacheSkipsHeldSlots(t *testing.T) {
	p := slotsTestProto{n: 2}
	a := MustNewConfig(p, []int{0, 0})
	st := NewStepper(p)
	slotH := make([]uint64, st.Slots())
	st.InitSlots(a, slotH)
	blank := func() *Config {
		return &Config{Objects: make([]Value, len(a.Objects)), States: make([]State, len(a.States))}
	}

	ex := NewSlotExchange()
	ex.Intern(a, slotH, nil, nil)
	var out SlotCache
	if got := blank(); ex.Resolve(got, slotH, nil, &out) != -1 || got.Key() != a.Key() {
		t.Fatalf("resolved %q, want %q", got.Key(), a.Key())
	}
	// Only the last slot's hash changes, to one the exchange never saw:
	// every slot before it comes from the cache, the last one misses.
	next := slices.Clone(slotH)
	next[len(next)-1] ^= 1
	got := blank()
	if miss := ex.Resolve(got, next, nil, &out); miss != len(next)-1 {
		t.Fatalf("miss %d, want %d", miss, len(next)-1)
	}
	for i := range a.Objects {
		if got.Objects[i].Key() != a.Objects[i].Key() {
			t.Errorf("object %d = %v, want the cached %v", i, got.Objects[i], a.Objects[i])
		}
	}

	// Interning through a cache that holds a's slots interns only the
	// changed one: an exchange that knew nothing then holds that slot, a
	// state, and no object.
	var in SlotCache
	ex.Intern(a, slotH, nil, &in)
	fresh := NewSlotExchange()
	fresh.Intern(a, next, nil, &in)
	if _, ok := fresh.sts.find(next[len(next)-1], nil); !ok || len(fresh.vals) != 0 || len(fresh.sts) != 1 {
		t.Errorf("interned %d objects and %d states (changed state found: %t), want the changed state alone",
			len(fresh.vals), len(fresh.sts), ok)
	}
}
