package core

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

// TestRuntimeConformsToModel records a schedule on the runtime, processes
// one at a time, each solo to its decision, and replays it through
// model.Apply, each pid for as many steps as it swapped: every object's
// final value and every decision must match. So the runtime's driver takes
// no step the model does not, and gets every response to the step it does.
func TestRuntimeConformsToModel(t *testing.T) {
	order := []int{2, 0, 3, 1}
	for _, k := range []int{1, 2} {
		for _, inputs := range [][]int{{0, 1, 2, 0}, {2, 2, 1, 0}} {
			p := Params{N: 4, K: k, M: 3}
			t.Run(fmt.Sprintf("k=%d/inputs=%v", k, inputs), func(t *testing.T) {
				rt, err := NewSetAgreement(p, Options{})
				if err != nil {
					t.Fatal(err)
				}
				var path []byte
				decided := make([]int, p.N)
				for _, pid := range order {
					before := rt.Stats().Swaps.Load()
					if decided[pid], err = rt.Propose(pid, inputs[pid]); err != nil {
						t.Fatal(err)
					}
					for range rt.Stats().Swaps.Load() - before {
						path = append(path, byte(pid))
					}
				}

				proto := MustNew(p)
				start, err := model.NewConfig(proto, inputs)
				if err != nil {
					t.Fatal(err)
				}
				c, err := model.Replay(proto, start, path)
				if err != nil {
					t.Fatalf("replaying the runtime's %d swaps: %v", len(path), err)
				}
				for i, want := range c.Objects {
					if got := rt.objs[i].Load().(model.Value).Key(); got != want.Key() {
						t.Errorf("object %d: runtime holds %s, model %s", i, got, want.Key())
					}
				}
				for pid, v := range decided {
					if d, ok := proto.Decision(c.States[pid]); !ok || d != v {
						t.Errorf("p%d: runtime decided %d, model (%d, %t)", pid, v, d, ok)
					}
				}
			})
		}
	}
}
