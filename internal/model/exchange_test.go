package model

import (
	"slices"
	"testing"
)

// TestSlotExchangeDegenerateHashes: with every slot content hash forced
// equal, an exchange matching on encodings still resolves each
// configuration's slots to the canonical objects interned under its own
// encodings, never to another's that shares the hash, and a hash nothing
// was interned under is a miss.
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

	ex := NewSlotExchange()
	ex.Intern(a, ah, as)
	ex.Intern(b, bh, bs)
	blank := func() *Config {
		return &Config{Objects: make([]Value, len(a.Objects)), States: make([]State, len(a.States))}
	}
	for _, c := range []*Config{a, b} {
		slotH, spans := split(c)
		got := blank()
		if miss := ex.Resolve(got, slotH, spans); miss != -1 || got.Key() != c.Key() {
			t.Errorf("resolved %q (miss %d), interned %q", got.Key(), miss, c.Key())
		}
	}

	other := slices.Repeat([]uint64{1}, len(ah))
	if miss := ex.Resolve(blank(), other, as); miss != 0 {
		t.Errorf("an un-interned hash resolves with miss %d, want 0", miss)
	}
}
