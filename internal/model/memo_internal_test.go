package model

import (
	"fmt"
	"testing"
)

// Unit tests of the stepper's memo table itself (stepMemo): the cases a
// protocol run reaches only by luck — keys whose probes start at the same
// slot, and entries carried across a resize. The steppers built on it are held to the protocol by
// TestStepperMatchesApply, FuzzStepperCOW and TestDegenerateHashExactRuns.

// collidingRefs returns k distinct state refs whose probes for pid all
// start at the same slot of m.
func collidingRefs(m *stepMemo, pid, k int) []uint32 {
	want := m.start(pid, 1)
	out := []uint32{1}
	for r := uint32(2); len(out) < k; r++ {
		if m.start(pid, r) == want {
			out = append(out, r)
		}
	}
	return out
}

// TestMemoDeterministicUnderCollidingProbeStarts: entries whose probe
// sequences start at one slot stay distinct entries, each found with its
// own poised operation and transitions, and a key that is absent is absent
// however long the run of occupied slots it has to cross.
func TestMemoDeterministicUnderCollidingProbeStarts(t *testing.T) {
	m := newStepMemo()
	const pid = 3
	refs := collidingRefs(m, pid, 18)
	for i, r := range refs {
		if m.find(pid, r) != nil {
			t.Fatalf("ref %d (%d) found before it was added", i, r)
		}
		e := m.add(pid, r, poisedVal{op: Op{Object: i}})
		e.addTransition(7, transVal{sh: uint64(i), valRef: 1})
		e.addTransition(8, transVal{sh: uint64(i), valRef: 2})
	}
	if m.n != len(refs) {
		t.Fatalf("table holds %d entries, want %d", m.n, len(refs))
	}
	for i, r := range refs {
		e := m.find(pid, r)
		if e == nil || e.poised.op.Object != i {
			t.Fatalf("ref %d (%d): found %+v, want the entry with object %d", i, r, e, i)
		}
		for v, want := range map[uint32]uint32{7: 1, 8: 2} {
			if tv := e.find(v); tv == nil || tv.valRef != want || tv.sh != uint64(i) {
				t.Errorf("ref %d: transition on value %d = %+v, want valRef %d of entry %d", i, v, tv, want, i)
			}
		}
		if tv := e.find(9); tv != nil {
			t.Errorf("ref %d: found a transition on a value never added: %+v", i, tv)
		}
	}
	// Same probe start, other ref or other pid: absent.
	if e := m.find(pid, collidingRefs(m, pid, len(refs)+1)[len(refs)]); e != nil {
		t.Errorf("found an entry for a ref never added: %+v", e)
	}
	if e := m.find(pid+1, refs[0]); e != nil && e.pid == pid {
		t.Errorf("pid %d's probe returned pid %d's entry", pid+1, pid)
	}
}

// TestMemoDeterministicAcrossResize: a table grown through several
// doublings — from four slots, to make that quick — still holds
// every entry it was given, with the transitions the entry had when it
// moved, and stays at most half full.
func TestMemoDeterministicAcrossResize(t *testing.T) {
	m := &stepMemo{}
	m.resize(4)
	const entries = 300
	check := func(upTo int) {
		t.Helper()
		for i := 0; i <= upTo; i++ {
			pid, r := i%5, uint32(i)*7919
			e := m.find(pid, r)
			if e == nil || e.poised.op.Object != i {
				t.Fatalf("after %d adds (%d slots): entry %d = %+v", upTo+1, len(m.slots), i, e)
			}
			for j := 0; j <= i%4; j++ {
				if tv := e.find(uint32(j)); tv == nil || tv.valRef != uint32(i*10+j) {
					t.Fatalf("after %d adds (%d slots): entry %d transition %d = %+v", upTo+1, len(m.slots), i, j, tv)
				}
			}
		}
	}
	sizes := map[int]bool{}
	for i := 0; i < entries; i++ {
		pid, r := i%5, uint32(i)*7919
		e := m.add(pid, r, poisedVal{op: Op{Object: i}})
		for j := 0; j <= i%4; j++ {
			e.addTransition(uint32(j), transVal{valRef: uint32(i*10 + j)})
		}
		sizes[len(m.slots)] = true
		if 2*m.n > len(m.slots) {
			t.Fatalf("%d entries in %d slots: more than half full", m.n, len(m.slots))
		}
		if i < 40 || i == entries-1 {
			check(i)
		}
	}
	if len(sizes) < 6 {
		t.Errorf("table took sizes %v: the test did not cross the resizes it is about", fmt.Sprint(sizes))
	}
}

// TestMemoDeterministicTransitionIndex: one entry's transitions, grown
// from the first index of 8 slots through several doublings, with value
// refs chosen to start their probes at one slot — every transition stays
// found as itself, an absent value stays absent, and the index stays at
// most half full.
func TestMemoDeterministicTransitionIndex(t *testing.T) {
	var e memoEntry
	var vals []uint32
	for r := uint32(1); len(vals) < 300; r++ {
		if indexStart(r)&7 == 3 || r%7 == 0 { // many share one probe start in the first index
			vals = append(vals, r)
		}
	}
	sizes := map[int]bool{}
	for i, v := range vals {
		if tv := e.find(v); tv != nil {
			t.Fatalf("value %d (%d) found before it was added: %+v", i, v, tv)
		}
		e.addTransition(v, transVal{stRef: uint32(i)})
		sizes[len(e.index)] = true
		if 2*len(e.trans) > len(e.index) {
			t.Fatalf("%d transitions in %d index slots: more than half full", len(e.trans), len(e.index))
		}
		if i < 40 || i == len(vals)-1 {
			for j, w := range vals[:i+1] {
				if tv := e.find(w); tv == nil || tv.stRef != uint32(j) {
					t.Fatalf("after %d adds (%d slots): value %d = %+v", i+1, len(e.index), j, tv)
				}
			}
		}
	}
	if tv := e.find(vals[len(vals)-1] + 1000003); tv != nil {
		t.Errorf("found a transition for a value never added: %+v", tv)
	}
	if len(sizes) < 6 {
		t.Errorf("index took sizes %v: the test did not cross the resizes it is about", fmt.Sprint(sizes))
	}
}
