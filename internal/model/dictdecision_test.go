package model_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// TestDictDecision: the decision a dictionary holds for a state ref is the
// protocol's Decision of that state, for every state met on random
// Algorithm 1 schedules long enough to decide, under real hashes and with
// every slot hash forced equal (where the refs rest on the bytes alone).
// It also holds for an entry first interned bare, by its encoding alone
// (a resumed exact-key run's checkpoint keys), once a real intern of that
// encoding attaches its object.
func TestDictDecision(t *testing.T) {
	p := core.MustNew(core.Params{N: 3, K: 1, M: 2})
	nObj, nProc := len(p.Objects()), p.NumProcesses()
	// Configurations along random schedules: each process runs solo to
	// its decision now and then, so most of them hold decided states.
	rng := rand.New(rand.NewSource(1))
	var cfgs []*model.Config
	for range 30 {
		c := model.MustNewConfig(p, []int{rng.Intn(2), rng.Intn(2), rng.Intn(2)})
		for range 60 {
			pid := rng.Intn(nProc)
			if _, done := c.Decided(p, pid); done {
				continue
			}
			if _, err := model.Apply(p, c, pid); err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, c.Clone())
		}
	}
	decided := 0
	check := func(t *testing.T, d *model.Dict, refs []uint32, c *model.Config) {
		t.Helper()
		for pid, s := range c.States {
			wv, wok := p.Decision(s)
			if v, ok := d.Decision(refs[nObj+pid]); v != wv || ok != wok {
				t.Fatalf("p%d in %q: the dictionary holds decision (%d, %t), the protocol says (%d, %t)", pid, c.Key(), v, ok, wv, wok)
			}
			if wok {
				decided++
			}
		}
	}
	for _, degenerate := range []bool{false, true} {
		t.Run(fmt.Sprintf("degenerate=%t", degenerate), func(t *testing.T) {
			model.SetDegenerateSlotHashes(degenerate)
			defer model.SetDegenerateSlotHashes(false)

			d := model.NewDict(p)
			refs := make([]uint32, nObj+nProc)
			for _, c := range cfgs {
				d.Intern(c, refs)
				check(t, d, refs, c)
			}

			// A second dictionary meets every configuration as encodings
			// first: bare entries, whose objects and decisions the real
			// intern attaches under the same refs.
			d = model.NewDict(p)
			var cache model.SlotCache
			bare := make([]uint32, nObj+nProc)
			for _, c := range cfgs {
				spans, err := model.SlotSpans(c.AppendEncoding(nil), nObj, nProc, nil)
				if err != nil {
					t.Fatal(err)
				}
				d.InternEncodings(bare, spans, &cache)
			}
			for _, c := range cfgs {
				spans, _ := model.SlotSpans(c.AppendEncoding(nil), nObj, nProc, nil)
				d.InternEncodings(bare, spans, &cache)
				d.Intern(c, refs)
				for i := range refs {
					if refs[i] != bare[i] {
						t.Fatalf("slot %d of %q: interned as ref %d, its encoding as %d", i, c.Key(), refs[i], bare[i])
					}
				}
				check(t, d, refs, c)
			}
		})
	}
	if decided == 0 {
		t.Fatal("no schedule reached a decided state: the test checks nothing")
	}
}
