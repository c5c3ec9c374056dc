package model

import (
	"fmt"
	"testing"
)

// Unit tests of the stepper's memo table itself (stepMemo): the cases a
// protocol run reaches only by luck — keys whose probes start at the same
// slot, keys equal in everything but their bytes, and entries carried
// across a resize. The steppers built on it are held to the protocol by
// TestStepperMatchesApply, FuzzStepperCOW and TestDegenerateHashExactRuns.

// collidingHashes returns k distinct state hashes whose probes for pid all
// start at the same slot of m.
func collidingHashes(m *stepMemo, pid, k int) []uint64 {
	want := m.start(pid, 1)
	out := []uint64{1}
	for h := uint64(2); len(out) < k; h++ {
		if m.start(pid, h) == want {
			out = append(out, h)
		}
	}
	return out
}

// TestMemoDeterministicUnderCollidingProbeStarts: entries whose probe
// sequences start at one slot — different hashes, and the same hash with
// different encodings, as an exact stepper under degenerate hashes has
// them — stay distinct entries, each found with its own poised operation
// and transitions, and a key that is absent is absent however long the
// run of occupied slots it has to cross.
func TestMemoDeterministicUnderCollidingProbeStarts(t *testing.T) {
	m := newStepMemo()
	const pid = 3
	type key struct {
		stH uint64
		enc string
	}
	var keys []key
	for _, h := range collidingHashes(m, pid, 6) {
		keys = append(keys, key{h, ""}, key{h, "enc-a"}, key{h, "enc-b"})
	}
	encOf := func(k key) []byte {
		if k.enc == "" {
			return nil // a hash-keyed stepper passes no encoding
		}
		return []byte(k.enc)
	}
	for i, k := range keys {
		if m.find(pid, k.stH, encOf(k)) != nil {
			t.Fatalf("key %d (%#x, %q) found before it was added", i, k.stH, k.enc)
		}
		e := m.add(pid, k.stH, encOf(k), poisedVal{op: Op{Object: i}})
		// Two transitions on one value hash, told apart by bytes alone.
		e.addTransition(7, []byte("v1"), transVal{vh: uint64(i), valRef: 1})
		e.addTransition(7, []byte("v2"), transVal{vh: uint64(i), valRef: 2})
	}
	if m.n != len(keys) {
		t.Fatalf("table holds %d entries, want %d", m.n, len(keys))
	}
	for i, k := range keys {
		e := m.find(pid, k.stH, encOf(k))
		if e == nil || e.poised.op.Object != i {
			t.Fatalf("key %d (%#x, %q): found %+v, want the entry with object %d", i, k.stH, k.enc, e, i)
		}
		for ref, v := range map[uint32]string{1: "v1", 2: "v2"} {
			if tv := e.find(7, []byte(v)); tv == nil || tv.valRef != ref || tv.vh != uint64(i) {
				t.Errorf("key %d: transition on %q = %+v, want valRef %d of entry %d", i, v, tv, ref, i)
			}
		}
		if tv := e.find(7, []byte("v3")); tv != nil {
			t.Errorf("key %d: found a transition on a value never added: %+v", i, tv)
		}
		if tv := e.find(8, []byte("v1")); tv != nil {
			t.Errorf("key %d: found a transition under another value hash: %+v", i, tv)
		}
	}
	// Same probe start, same hash, other pid or other bytes: absent.
	if e := m.find(pid, keys[0].stH, []byte("enc-c")); e != nil {
		t.Errorf("found an entry for an encoding never added: %+v", e)
	}
	if e := m.find(pid+1, keys[0].stH, nil); e != nil && e.pid == pid {
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
			pid, stH := i%5, uint64(i)*0x9E3779B97F4A7C15
			e := m.find(pid, stH, nil)
			if e == nil || e.poised.op.Object != i {
				t.Fatalf("after %d adds (%d slots): entry %d = %+v", upTo+1, len(m.slots), i, e)
			}
			for j := 0; j <= i%4; j++ {
				if tv := e.find(uint64(j), nil); tv == nil || tv.valRef != uint32(i*10+j) {
					t.Fatalf("after %d adds (%d slots): entry %d transition %d = %+v", upTo+1, len(m.slots), i, j, tv)
				}
			}
		}
	}
	sizes := map[int]bool{}
	for i := 0; i < entries; i++ {
		pid, stH := i%5, uint64(i)*0x9E3779B97F4A7C15
		e := m.add(pid, stH, nil, poisedVal{op: Op{Object: i}})
		for j := 0; j <= i%4; j++ {
			e.addTransition(uint64(j), nil, transVal{valRef: uint32(i*10 + j)})
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
// hashes chosen to start their probes at one slot and pairs that share a
// hash and differ in bytes — every transition stays found as itself, an
// absent value stays absent, and the index stays at most half full.
func TestMemoDeterministicTransitionIndex(t *testing.T) {
	var e memoEntry
	type val struct {
		h   uint64
		enc string
	}
	var vals []val
	for h := uint64(1); len(vals) < 300; h++ {
		switch {
		case indexStart(h)&7 == 3: // one probe start in the first index
			vals = append(vals, val{h, "a"}, val{h, "b"})
		case h%7 == 0:
			vals = append(vals, val{h, ""})
		}
	}
	sizes := map[int]bool{}
	for i, v := range vals {
		if tv := e.find(v.h, []byte(v.enc)); tv != nil {
			t.Fatalf("value %d (%#x, %q) found before it was added: %+v", i, v.h, v.enc, tv)
		}
		e.addTransition(v.h, []byte(v.enc), transVal{valRef: uint32(i)})
		sizes[len(e.index)] = true
		if 2*len(e.trans) > len(e.index) {
			t.Fatalf("%d transitions in %d index slots: more than half full", len(e.trans), len(e.index))
		}
		if i < 40 || i == len(vals)-1 {
			for j, w := range vals[:i+1] {
				if tv := e.find(w.h, []byte(w.enc)); tv == nil || tv.valRef != uint32(j) {
					t.Fatalf("after %d adds (%d slots): value %d = %+v", i+1, len(e.index), j, tv)
				}
			}
		}
	}
	if tv := e.find(vals[0].h, []byte("c")); tv != nil {
		t.Errorf("found a transition for bytes never added: %+v", tv)
	}
	if len(sizes) < 6 {
		t.Errorf("index took sizes %v: the test did not cross the resizes it is about", fmt.Sprint(sizes))
	}
}
