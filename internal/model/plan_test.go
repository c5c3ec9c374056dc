package model_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
)

// Tests of the stepper's two-phase step: Plan a transition now, Install it
// later. An expansion plans every successor of a chunk of nodes — hundreds
// of lookups, any of which may add a transition or grow the memo — before
// it installs the few the visited set admits, so a planned Step must not
// be a view into the memo.

// counterProto is two processes that swap their own step count into one
// object for ever: a state's memo entry meets as many object values as the
// test cares to show it, and there are as many states as it cares to make.
type counterProto struct{}

func (counterProto) Name() string      { return "counter-proto" }
func (counterProto) NumProcesses() int { return 2 }
func (counterProto) Objects() []model.ObjectSpec {
	return []model.ObjectSpec{{Type: model.SwapType{}, Init: model.Int(0)}}
}
func (counterProto) Init(pid, input int) model.State { return model.Int(0) }
func (counterProto) Poised(pid int, st model.State) (model.Op, bool) {
	return model.Op{Object: 0, Kind: model.OpSwap, Arg: st.(model.Int)}, true
}
func (counterProto) Observe(pid int, st model.State, resp model.Value) model.State {
	return st.(model.Int) + 1
}
func (counterProto) Decision(st model.State) (int, bool) { return 0, false }

// planned is a configuration with everything a stepper steps from.
type planned struct {
	cfg   *model.Config
	fp    uint64
	slotH []uint64
	penc  *model.SlotEncoding // nil for a hash-keyed step
}

func newPlanned(t *testing.T, st *model.Stepper, cfg *model.Config, exact bool) planned {
	t.Helper()
	p := planned{cfg: cfg, slotH: make([]uint64, st.Slots())}
	p.fp = st.InitSlots(cfg, p.slotH)
	if exact {
		p.penc = new(model.SlotEncoding)
		if err := p.penc.Set(string(cfg.AppendEncoding(nil)), len(cfg.Objects), len(cfg.States)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func shapeOf(c *model.Config) (*model.Config, []uint64) {
	return &model.Config{Objects: make([]model.Value, len(c.Objects)), States: make([]model.State, len(c.States))},
		make([]uint64, len(c.Objects)+len(c.States))
}

// TestPlannedStepSurvivesMemoGrowth: a Step planned from one (state,
// value) pair still installs the right successor after 1,000 further
// transitions have been added to the same memo entry (the same state met
// on other values: the entry's transition slice and index are reallocated
// several times) and 1,000 further entries to the memo table (other
// states: the table is rehashed twice).
func TestPlannedStepSurvivesMemoGrowth(t *testing.T) {
	for _, exact := range []bool{false, true} {
		newStepper := model.NewStepper
		if exact {
			newStepper = model.NewStepperExact
		}
		st := newStepper(counterProto{})
		at := func(value, state int) planned {
			return newPlanned(t, st, &model.Config{
				Objects: []model.Value{model.Int(value)},
				States:  []model.State{model.Int(state), model.Int(0)},
			}, exact)
		}
		first := at(-1, 7)
		var step model.Step
		if ok, err := st.Plan(first.cfg, first.slotH, 0, first.penc, &step); !ok || err != nil {
			t.Fatalf("exact=%t: Plan: ok=%t err=%v", exact, ok, err)
		}
		var scratch model.Step
		for i := 0; i < 1000; i++ {
			for _, p := range []planned{at(i, 7), at(-1, 100+i)} {
				if ok, err := st.Plan(p.cfg, p.slotH, 0, p.penc, &scratch); !ok || err != nil {
					t.Fatalf("exact=%t: Plan %d: ok=%t err=%v", exact, i, ok, err)
				}
			}
		}

		dst, dstH := shapeOf(first.cfg)
		st.Install(first.cfg, first.slotH, 0, &step, dst, dstH)
		fresh := newStepper(counterProto{})
		ref := newPlanned(t, fresh, &model.Config{
			Objects: []model.Value{model.Int(-1)},
			States:  []model.State{model.Int(7), model.Int(0)},
		}, false)
		want, wantH := shapeOf(ref.cfg)
		wantFP, ok, err := fresh.ApplyCOW(ref.cfg, ref.fp, ref.slotH, 0, want, wantH)
		if !ok || err != nil {
			t.Fatalf("exact=%t: fresh ApplyCOW: ok=%t err=%v", exact, ok, err)
		}
		if got := step.Fingerprint(first.fp); got != wantFP || !reflect.DeepEqual(dstH, wantH) ||
			string(dst.AppendEncoding(nil)) != string(want.AppendEncoding(nil)) {
			t.Errorf("exact=%t: the step planned before the memo grew installs %q (fp %#x, hashes %x); a fresh stepper steps to %q (fp %#x, hashes %x)",
				exact, dst.AppendEncoding(nil), got, dstH, want.AppendEncoding(nil), wantFP, wantH)
		}
		if exact {
			if key := st.AppendKey(nil, first.penc, 0, &step); string(key) != string(want.AppendEncoding(nil)) {
				t.Errorf("spliced key %q, the successor encodes %q", key, want.AppendEncoding(nil))
			}
		}
	}
}

// TestPlanThenInstallMatchesApply: on random walks, planning the step of
// every process first and installing one of them afterwards yields the
// successor a memo-free step through the protocol yields — slots, slot
// hashes, fingerprint and, for the exact stepper, the spliced key — under
// both steppers, with cold and with warm memos.
func TestPlanThenInstallMatchesApply(t *testing.T) {
	toybit, err := baseline.NewToyBitRace(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		p      model.Protocol
		inputs []int
	}{
		{"algorithm1", core.MustNew(core.Params{N: 4, K: 2, M: 3}), []int{0, 1, 2, 0}},
		{"toybit", toybit, []int{0, 1, 0, 1}},
	} {
		for _, exact := range []bool{false, true} {
			st := model.NewStepper(tc.p)
			if exact {
				st = model.NewStepperExact(tc.p)
			}
			ref := model.NewStepperExact(tc.p) // its ApplyCOW asks the protocol every time
			rng := rand.New(rand.NewSource(24))
			n := tc.p.NumProcesses()
			for walk := 0; walk < 20; walk++ {
				cur := newPlanned(t, st, model.MustNewConfig(tc.p, tc.inputs), exact)
				for depth := 0; depth < 60; depth++ {
					steps := make([]model.Step, n)
					var live []int
					for pid := range steps {
						ok, err := st.Plan(cur.cfg, cur.slotH, pid, cur.penc, &steps[pid])
						if err != nil {
							t.Fatal(err)
						}
						if ok {
							live = append(live, pid)
						}
					}
					if len(live) == 0 {
						break
					}
					pid := live[rng.Intn(len(live))]
					dst, dstH := shapeOf(cur.cfg)
					st.Install(cur.cfg, cur.slotH, pid, &steps[pid], dst, dstH)
					fp := steps[pid].Fingerprint(cur.fp)

					want, wantH := shapeOf(cur.cfg)
					wantFP, ok, err := ref.ApplyCOW(cur.cfg, cur.fp, cur.slotH, pid, want, wantH)
					if !ok || err != nil {
						t.Fatalf("%s exact=%t: reference step of a live pid: ok=%t err=%v", tc.name, exact, ok, err)
					}
					wantEnc := string(want.AppendEncoding(nil))
					if fp != wantFP || !reflect.DeepEqual(dstH, wantH) || string(dst.AppendEncoding(nil)) != wantEnc || dst.Key() != want.Key() {
						t.Fatalf("%s exact=%t walk %d depth %d p%d: installed %q (fp %#x), the protocol steps to %q (fp %#x)",
							tc.name, exact, walk, depth, pid, dst.AppendEncoding(nil), fp, wantEnc, wantFP)
					}
					next := planned{cfg: dst, fp: fp, slotH: dstH}
					if exact {
						key := st.AppendKey(nil, cur.penc, pid, &steps[pid])
						if string(key) != wantEnc {
							t.Fatalf("%s walk %d depth %d p%d: spliced key %q, the successor encodes %q", tc.name, walk, depth, pid, key, wantEnc)
						}
						next.penc = new(model.SlotEncoding)
						if err := next.penc.Set(string(key), len(dst.Objects), len(dst.States)); err != nil {
							t.Fatal(err)
						}
					}
					cur = next
				}
			}
		}
	}
}
