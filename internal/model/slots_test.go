package model

import (
	"bytes"
	"testing"
)

// slotsTestProto is a minimal protocol exercising every value encoding
// the slot scanner must parse: Nil, Int, Pair, Vec and opaque states.
type slotsTestProto struct{ n int }

type slotsSt struct{ tag string }

func (s slotsSt) Key() string { return "slots:" + s.tag }

func (p slotsTestProto) Name() string      { return "slots-test" }
func (p slotsTestProto) NumProcesses() int { return p.n }
func (p slotsTestProto) Objects() []ObjectSpec {
	return []ObjectSpec{
		{Type: SwapType{}, Init: Nil{}},
		{Type: SwapType{}, Init: Int(-42)},
		{Type: SwapType{}, Init: Pair{First: Int(7), Second: Nil{}}},
		{Type: SwapType{}, Init: Vec{1, -2, 300}},
	}
}
func (p slotsTestProto) Init(pid, input int) State { return slotsSt{tag: "init"} }
func (p slotsTestProto) Poised(pid int, st State) (Op, bool) {
	return Op{Object: 0, Kind: OpSwap, Arg: Int(pid)}, true
}
func (p slotsTestProto) Observe(pid int, st State, resp Value) State { return st }
func (p slotsTestProto) Decision(st State) (int, bool)               { return 0, false }

// TestSlotSpansRoundTrip: splitting an AppendEncoding result yields one
// span per slot, re-concatenating the spans (with separators) rebuilds
// the encoding, and each span's content hash equals the per-slot hash
// Stepper.InitSlots computes — the pairing of a record's slot hashes with
// its key's spans that the slot exchange matches exact-key slots on.
func TestSlotSpansRoundTrip(t *testing.T) {
	p := slotsTestProto{n: 3}
	c := MustNewConfig(p, []int{0, 1, 0})
	c.States[1] = slotsSt{tag: "other"}
	c.States[2] = nil // nil states are encodable and must scan

	enc := c.AppendEncoding(nil)
	nObj, nProc := len(c.Objects), len(c.States)
	spans, err := SlotSpans(enc, nObj, nProc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != nObj+nProc {
		t.Fatalf("got %d spans, want %d", len(spans), nObj+nProc)
	}

	// Reassemble: spans + separators == original encoding.
	var rebuilt []byte
	for _, sp := range spans[:nObj] {
		rebuilt = append(rebuilt, sp...)
	}
	rebuilt = append(rebuilt, encObjsDone)
	for _, sp := range spans[nObj:] {
		rebuilt = append(rebuilt, sp...)
		rebuilt = append(rebuilt, encStateDone)
	}
	if !bytes.Equal(rebuilt, enc) {
		t.Fatalf("spans do not reassemble the encoding:\n got %x\nwant %x", rebuilt, enc)
	}

	// Per-slot content hashes match the stepper's slot-hash vector.
	st := NewStepper(p)
	ref := c.Clone()
	slotH := make([]uint64, st.Slots())
	st.InitSlots(ref, slotH)
	for i, sp := range spans {
		if got := hashEncoding(sp); got != slotH[i] {
			t.Errorf("slot %d: span hashes to %#x, InitSlots hash = %#x", i, got, slotH[i])
		}
	}
}

// TestSlotSpansMalformed: truncated or corrupted encodings fail loudly
// instead of mis-splitting.
func TestSlotSpansMalformed(t *testing.T) {
	p := slotsTestProto{n: 2}
	c := MustNewConfig(p, []int{0, 0})
	enc := c.AppendEncoding(nil)
	nObj, nProc := len(c.Objects), len(c.States)

	cases := map[string][]byte{
		"empty":            {},
		"truncated":        enc[:len(enc)/2],
		"trailing":         append(append([]byte{}, enc...), 0x01),
		"bad tag":          append([]byte{0xFF}, enc[1:]...),
		"overrun opaque":   {encOpaque, 0x7F},
		"missing sep":      bytes.ReplaceAll(enc, []byte{encObjsDone}, []byte{encNilValue}),
		"truncated varint": {encInt, 0x80},
	}
	for name, bad := range cases {
		if _, err := SlotSpans(bad, nObj, nProc, nil); err == nil {
			t.Errorf("%s: malformed encoding accepted", name)
		}
	}
}
