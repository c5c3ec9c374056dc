package model_test

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
)

// stepperHarness drives a plain Clone+Apply configuration, a COW
// configuration (ApplyCOW over the memoising stepper) and a ref vector
// (Plan, Install over a dictionary) through the same schedule
// and cross-checks them after every step. It is shared by the unit test
// and the fuzz target.
type stepperHarness struct {
	t       *testing.T
	p       model.Protocol
	inputs  []int
	stepper *model.Stepper
	keyed   *model.Stepper // stepped on refs with Plan + Install
	ref     *model.Stepper // NewStepperExact, stepped with its memo-free ApplyCOW

	plain *model.Config
	cow   *model.Config
	cowFP uint64
	cowH  []uint64

	refs []uint32 // the keyed representation, in keyed's dictionary
	exFP uint64
}

func newStepperHarness(t *testing.T, p model.Protocol, inputs []int) *stepperHarness {
	t.Helper()
	h := &stepperHarness{t: t, p: p, inputs: inputs,
		stepper: model.NewStepper(p), keyed: model.NewStepperOn(p, model.NewDict(p)), ref: model.NewStepperExact(p)}
	h.restart()
	return h
}

// exConfig materialises the keyed representation's configuration.
func (h *stepperHarness) exConfig(refs []uint32) (*model.Config, []uint64) {
	c, hashes := h.newDst()
	h.keyed.Arena().Materialise(refs, c)
	for i, ref := range refs {
		hashes[i] = h.keyed.Arena().SlotHash(i, ref)
	}
	return c, hashes
}

// restart returns every representation to the initial configuration and
// keeps the steppers, so a schedule run again finds all its transitions
// memoized.
func (h *stepperHarness) restart() {
	h.t.Helper()
	h.plain = model.MustNewConfig(h.p, h.inputs)
	h.cow = model.MustNewConfig(h.p, h.inputs)
	h.cowH = make([]uint64, h.stepper.Slots())
	h.cowFP = h.stepper.InitSlots(h.cow, h.cowH)
	h.refs = make([]uint32, h.keyed.Slots())
	h.exFP = h.keyed.Arena().Intern(model.MustNewConfig(h.p, h.inputs), h.refs)
	h.check("initial")
}

func (h *stepperHarness) newDst() (*model.Config, []uint64) {
	return &model.Config{
		Objects: make([]model.Value, len(h.cow.Objects)),
		States:  make([]model.State, len(h.cow.States)),
	}, make([]uint64, len(h.cowH))
}

// stepKeyed takes pid's step in the ref representation and holds the
// memoized step to the memo-free one taken from the same parent: same
// outcome, fingerprint, slot hashes and successor.
func (h *stepperHarness) stepKeyed(pid int) bool {
	h.t.Helper()
	dstRefs := make([]uint32, len(h.refs))
	var s model.Step
	ok, err := h.keyed.Plan(h.refs, pid, &s)
	if err != nil {
		h.t.Fatalf("Plan(p%d): %v", pid, err)
	}
	var fp uint64
	if ok {
		fp = s.Fingerprint(h.exFP)
		h.keyed.Install(h.refs, pid, &s, dstRefs)
	}
	ex, exH := h.exConfig(h.refs)
	rdst, rdstH := h.newDst()
	rfp, rok, err := h.ref.ApplyCOW(ex, h.exFP, exH, pid, rdst, rdstH)
	if err != nil {
		h.t.Fatalf("memo-free ApplyCOW(p%d): %v", pid, err)
	}
	if ok != rok {
		h.t.Fatalf("Plan(p%d) ok=%v, memo-free step ok=%v", pid, ok, rok)
	}
	if !ok {
		return false
	}
	dst, dstH := h.exConfig(dstRefs)
	if fp != rfp || !reflect.DeepEqual(dstH, rdstH) {
		h.t.Fatalf("Plan+Install(p%d): fp %#x hashes %x, memo-free step fp %#x hashes %x", pid, fp, dstH, rfp, rdstH)
	}
	if enc, want := h.keyed.Arena().AppendEncoding(nil, dstRefs), rdst.AppendEncoding(nil); string(enc) != string(want) {
		h.t.Fatalf("Plan+Install(p%d): refs encode\n%q\nmemo-free successor encodes\n%q", pid, enc, want)
	}
	if dk, rk := dst.Key(), rdst.Key(); dk != rk {
		h.t.Fatalf("Plan+Install(p%d): successor %q, memo-free successor %q", pid, dk, rk)
	}
	h.refs, h.exFP = dstRefs, fp
	return true
}

// step applies pid in both representations; it reports whether the
// process was active (took a step).
func (h *stepperHarness) step(pid int) bool {
	h.t.Helper()
	dst, dstH := h.newDst()
	fp, ok, err := h.stepper.ApplyCOW(h.cow, h.cowFP, h.cowH, pid, dst, dstH)
	if err != nil {
		h.t.Fatalf("ApplyCOW(p%d): %v", pid, err)
	}
	if _, decided := h.plain.Decided(h.p, pid); decided != !ok {
		h.t.Fatalf("ApplyCOW(p%d) ok=%v but plain decided=%v", pid, ok, decided)
	}
	if kok := h.stepKeyed(pid); kok != ok {
		h.t.Fatalf("exact Plan(p%d) ok=%v but ApplyCOW ok=%v", pid, kok, ok)
	}
	if !ok {
		return false
	}
	h.cow, h.cowFP, h.cowH = dst, fp, dstH

	if _, err := model.Apply(h.p, h.plain, pid); err != nil {
		h.t.Fatalf("Apply(p%d): %v", pid, err)
	}
	h.check("after p" + string(rune('0'+pid)))
	return true
}

// check asserts the two representations agree on every observable: exact
// encoding, canonical key, slot fingerprint (incremental == from
// scratch), decided values, and poised operations.
func (h *stepperHarness) check(when string) {
	h.t.Helper()
	plainEnc := h.plain.AppendEncoding(nil)
	cowEnc := h.cow.AppendEncoding(nil)
	if string(plainEnc) != string(cowEnc) {
		h.t.Fatalf("%s: encodings diverge:\nplain %q\ncow   %q", when, plainEnc, cowEnc)
	}
	if pk, ck := h.plain.Key(), h.cow.Key(); pk != ck {
		h.t.Fatalf("%s: keys diverge:\nplain %q\ncow   %q", when, pk, ck)
	}
	if want := h.plain.SlotFingerprint(); h.cowFP != want {
		h.t.Fatalf("%s: incremental fingerprint %#x != from-scratch %#x", when, h.cowFP, want)
	}
	if got, want := h.cow.SlotFingerprint(), h.cowFP; got != want {
		h.t.Fatalf("%s: COW config re-hash %#x != maintained %#x", when, got, want)
	}
	if refEnc := h.keyed.Arena().AppendEncoding(nil, h.refs); string(refEnc) != string(plainEnc) {
		h.t.Fatalf("%s: ref vector encodes differently:\nplain %q\nrefs  %q", when, plainEnc, refEnc)
	}
	ex, exH := h.exConfig(h.refs)
	if exEnc := ex.AppendEncoding(nil); string(exEnc) != string(plainEnc) {
		h.t.Fatalf("%s: ref vector materialises differently:\nplain  %q\nconfig %q", when, plainEnc, exEnc)
	}
	if h.exFP != h.cowFP || !reflect.DeepEqual(exH, h.cowH) {
		h.t.Fatalf("%s: ref-vector fp %#x hashes %x != COW fp %#x hashes %x", when, h.exFP, exH, h.cowFP, h.cowH)
	}
	if got, want := h.cow.DecidedValues(h.p), h.plain.DecidedValues(h.p); !reflect.DeepEqual(got, want) {
		h.t.Fatalf("%s: decided values %v != %v", when, got, want)
	}
	gotOps, wantOps := h.cow.PoisedOps(h.p), h.plain.PoisedOps(h.p)
	for pid := range wantOps {
		if (gotOps[pid] == nil) != (wantOps[pid] == nil) {
			h.t.Fatalf("%s: p%d poised presence diverges", when, pid)
		}
		if wantOps[pid] != nil && gotOps[pid].Key() != wantOps[pid].Key() {
			h.t.Fatalf("%s: p%d poised op %v != %v", when, pid, gotOps[pid], wantOps[pid])
		}
	}
}

// fuzzProtocols builds the protocol matrix the differential tests drive:
// Algorithm 1 (Vec/Pair-valued, the hot instance) and two baselines with
// opaque states (string-keyed fallback encodings).
func fuzzProtocols(t *testing.T) []struct {
	name   string
	p      model.Protocol
	inputs []int
} {
	t.Helper()
	pair := baseline.NewPairConsensus(2).WithProcesses(3)
	racing, err := baseline.NewRacingCounters(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		p      model.Protocol
		inputs []int
	}{
		{"alg1-n3k1m2", core.MustNew(core.Params{N: 3, K: 1, M: 2}), []int{0, 1, 1}},
		{"alg1-n4k2m3", core.MustNew(core.Params{N: 4, K: 2, M: 3}), []int{0, 1, 2, 0}},
		{"pair-3p", pair, []int{0, 1, 1}},
		{"racing-3p", racing, []int{0, 1, 0}},
	}
}

// TestStepperMatchesApply runs fixed round-robin and skewed schedules
// through the harness on every protocol.
func TestStepperMatchesApply(t *testing.T) {
	for _, tc := range fuzzProtocols(t) {
		t.Run(tc.name, func(t *testing.T) {
			h := newStepperHarness(t, tc.p, tc.inputs)
			n := tc.p.NumProcesses()
			for pass := 0; pass < 2; pass++ { // the second pass runs on warm memos
				for i := 0; i < 60; i++ {
					h.step(i % n)
					h.step((i * i) % n)
				}
				h.restart()
			}
		})
	}
}

// FuzzStepperCOW is the stepper's differential fuzz target: a random
// schedule (one byte per step: pid and protocol choice) applied to the
// plain, the COW and the ref-vector representation must agree
// on encoding, fingerprint, decided values and poised ops after every
// step — and again on a second pass over the same schedule, where every
// transition is a memo hit.
func FuzzStepperCOW(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 2, 0, 3, 3})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) == 0 {
			return
		}
		if len(schedule) > 128 {
			schedule = schedule[:128]
		}
		protos := fuzzProtocols(t)
		tc := protos[int(schedule[0])%len(protos)]
		h := newStepperHarness(t, tc.p, tc.inputs)
		n := tc.p.NumProcesses()
		for pass := 0; pass < 2; pass++ {
			for _, b := range schedule[1:] {
				h.step(int(b) % n)
			}
			h.restart()
		}
	})
}

// TestArenaInterning: in a slot dictionary equal values and states
// collapse to one ref, one canonical representative and one stored
// encoding; distinct ones do not.
func TestArenaInterning(t *testing.T) {
	p := cowProbe{} // two objects, two processes
	d := model.NewDict(p)
	config := func(refs []uint32) *model.Config {
		c := &model.Config{Objects: make([]model.Value, 2), States: make([]model.State, 2)}
		d.Materialise(refs, c)
		return c
	}

	v1 := d.InternValue(model.Pair{First: model.Int(1), Second: model.Int(3)})
	v2 := d.InternValue(model.Pair{First: model.Int(1), Second: model.Int(3)})
	v3 := d.InternValue(model.Pair{First: model.Int(1), Second: model.Int(4)})
	if v1 != v2 || d.SlotHash(0, v1) != d.SlotHash(0, v2) {
		t.Fatalf("equal values interned as refs %d and %d", v1, v2)
	}
	if v3 == v1 || d.SlotHash(0, v3) == d.SlotHash(0, v1) {
		t.Fatal("distinct values interned to the same entry")
	}
	s1 := d.InternState(cowSt{pid: 1, done: true}) // a state of p: the dictionary asks p for its decision
	s2 := d.InternState(cowSt{pid: 1, done: true})
	if s1 != s2 {
		t.Fatal("equal states did not intern to one ref")
	}
	a, b := config([]uint32{v1, v3, s1, s1}), config([]uint32{v2, v3, s2, s2})
	if a.Objects[0] != b.Objects[0] || a.States[0] != b.States[1] {
		t.Fatal("equal refs materialised to different canonical representatives")
	}
	if got, want := string(d.AppendEncoding(nil, []uint32{v1, v3, s1, s1})), string(a.AppendEncoding(nil)); got != want {
		t.Fatalf("stored encodings %q, the configuration encodes %q", got, want)
	}
	vals, states := d.Len()
	if vals != 2 || states != 1 {
		t.Fatalf("dictionary has %d values and %d states, want 2 and 1", vals, states)
	}
}

// cowProbe is a minimal 2-process protocol with comparable (pointer-free)
// values and states, so the COW sharing property can be asserted with
// interface identity: each process swaps Int(pid) into its own register
// slot once and decides the response-or-own value.
type cowProbe struct{}

type cowSt struct {
	pid  int
	done bool
}

func (s cowSt) Key() string {
	return "s" + string(rune('0'+s.pid)) + map[bool]string{true: "d", false: "u"}[s.done]
}

func (cowProbe) Name() string      { return "cow-probe" }
func (cowProbe) NumProcesses() int { return 2 }
func (cowProbe) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{
		{Type: model.SwapType{}, Init: model.Int(-1)},
		{Type: model.SwapType{}, Init: model.Int(-1)},
	}
}
func (cowProbe) Init(pid, input int) model.State { return cowSt{pid: pid} }
func (cowProbe) Poised(pid int, st model.State) (model.Op, bool) {
	if st.(cowSt).done {
		return model.Op{}, false
	}
	return model.Op{Object: pid, Kind: model.OpSwap, Arg: model.Int(pid)}, true
}
func (cowProbe) Observe(pid int, st model.State, resp model.Value) model.State {
	s := st.(cowSt)
	s.done = true
	return s
}
func (cowProbe) Decision(st model.State) (int, bool) {
	s := st.(cowSt)
	return s.pid, s.done
}

// TestApplyCOWSharesUntouchedSlots: a successor must share the canonical
// interface objects of every slot its step did not touch — the
// copy-on-write discipline, asserted by interface identity.
func TestApplyCOWSharesUntouchedSlots(t *testing.T) {
	p := cowProbe{}
	parent := model.MustNewConfig(p, []int{0, 0})
	st := model.NewStepper(p)
	slotH := make([]uint64, st.Slots())
	fp := st.InitSlots(parent, slotH)

	dst := &model.Config{Objects: make([]model.Value, 2), States: make([]model.State, 2)}
	dstH := make([]uint64, len(slotH))
	if _, ok, err := st.ApplyCOW(parent, fp, slotH, 1, dst, dstH); err != nil || !ok {
		t.Fatalf("ApplyCOW: ok=%v err=%v", ok, err)
	}
	if dst.Objects[0] != parent.Objects[0] {
		t.Error("untouched object slot 0 was not shared with the parent")
	}
	if dst.States[0] != parent.States[0] {
		t.Error("untouched state slot 0 was not shared with the parent")
	}
	if dst.Objects[1] == parent.Objects[1] {
		t.Error("touched object slot 1 still aliases the parent value")
	}
	if dstH[0] != slotH[0] {
		t.Error("untouched slot hash changed")
	}
	if dstH[2+1] == slotH[2+1] {
		t.Error("touched state slot hash did not change")
	}
}

// TestSlotFingerprintSensitivity: the slot fingerprint distinguishes
// position (same multiset of slot contents in different slots) — the
// property the position salt in mixSlot provides.
func TestSlotFingerprintSensitivity(t *testing.T) {
	c1 := &model.Config{
		Objects: []model.Value{model.Int(1), model.Int(2)},
		States:  []model.State{model.Int(0)},
	}
	c2 := &model.Config{
		Objects: []model.Value{model.Int(2), model.Int(1)},
		States:  []model.State{model.Int(0)},
	}
	if c1.SlotFingerprint() == c2.SlotFingerprint() {
		t.Fatal("swapping two object slots did not change the slot fingerprint")
	}
}
