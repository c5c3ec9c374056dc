package model

import (
	"fmt"
	"math/bits"
)

// This file implements the exploration hot path: a per-worker Stepper
// that steps ref vectors (configurations as refs into a run's slot
// dictionary, dict.go) and maintains the XOR of the per-slot content
// hashes, so a successor's fingerprint is its parent's XOR a constant of
// the transition: nothing is re-encoded.
//
// Design:
//
//   - Slot hashes are *content* hashes: equal encodings yield equal
//     hashes in every dictionary, so fingerprints assembled from them
//     agree across workers and processes.
//
//   - The slot fingerprint of a configuration is the XOR over all slots
//     of mixSlot(slot, contentHash). XOR makes the combine invertible:
//     replacing one slot's content is two XORs, which is what lets a step
//     return the successor fingerprint after hashing only the touched
//     object slot and process-state slot. mixSlot's strong
//     position-salted mixing keeps the combine from cancelling across
//     slots. Like the FNV fingerprint, distinct configurations may
//     collide (~2^-64 per pair, the bitstate trade-off); exact-encoding
//     keying remains available for certificate searches.
//
//   - A step the worker has taken before costs one table probe: the
//     stepper's memo (stepMemo) is open-addressed on the actor's (pid,
//     state ref), and the entry found holds the poised operation together
//     with every transition seen from it, one per ref of the targeted
//     object's value. The dictionary matches encodings byte for byte, so
//     equal refs are equal encodings and the memo is exact under either
//     keying: no hash decides a hit.
//
//   - A successor is its parent's ref vector with two refs replaced
//     (Install): a copy of a few pointer-free words. Within one
//     dictionary the vector is also the successor's exact identity, so an
//     exact-key run keys it by the vector, encoding nothing.
//
//   - InitSlots and ApplyCOW are the same steps for a caller holding a
//     Config and a slot-hash vector rather than refs (the repository
//     benchmark's step probe, tests): they resolve the slots they need
//     through the dictionary and write canonical objects back.

// Mix64 is the splitmix64 finalizer every fingerprint combine is built
// on: the slot mix below, a symmetry class's shares of its sum
// (CanonicalSlotFingerprint), and the stores' remixes of fingerprints.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// mixSlot combines a slot index with the content hash of the value stored
// there into that slot's fingerprint contribution (the finalizer over a
// position-salted hash).
func mixSlot(slot int, h uint64) uint64 { return Mix64(h ^ (uint64(slot)+1)*0x9E3779B97F4A7C15) }

// degenerateSlotHash, when set, gives every slot the same content hash,
// so every configuration has the same fingerprint: the test seam behind
// the proof that exact-key runs rest no decision on a hash. Only tests set
// it, and never while a stepper is in use.
var degenerateSlotHash bool

// SetDegenerateSlotHashes turns the degenerate-hash seam on or off. It is
// for tests, here and in the packages built on this one; a test that turns
// it on must not run in parallel with others and must turn it off again.
func SetDegenerateSlotHashes(on bool) { degenerateSlotHash = on }

// hashEncoding is the slot-content hash: FNV-1a over the compact
// encoding bytes.
func hashEncoding(enc []byte) uint64 {
	if degenerateSlotHash {
		return 0
	}
	return fnv1a(fnvOffset64, enc)
}

// MixSlotHash exposes the slot-fingerprint combine — mixSlot(slot, h) —
// to the explorer's reduction layer, which reassigns class slot hashes
// to canonical positions without re-encoding any slot. XORing a slot's
// MixSlotHash out of a Config.SlotFingerprint and a replacement's in is
// exactly how ApplyCOW maintains fingerprints incrementally.
func MixSlotHash(slot int, h uint64) uint64 { return mixSlot(slot, h) }

// SlotFingerprint returns the incremental-compatible fingerprint of c,
// computed from scratch: the XOR over all slots of the position-mixed
// content hash. Stepper.ApplyCOW maintains exactly this quantity
// incrementally; the equality is what FuzzStepperCOW pins down.
func (c *Config) SlotFingerprint() uint64 {
	bp := keyBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	var fp uint64
	for i, v := range c.Objects {
		buf = appendValue(buf[:0], v)
		fp ^= mixSlot(i, hashEncoding(buf))
	}
	n := len(c.Objects)
	for pid, s := range c.States {
		buf = appendState(buf[:0], s)
		fp ^= mixSlot(n+pid, hashEncoding(buf))
	}
	*bp = buf
	keyBufPool.Put(bp)
	return fp
}

// poisedVal is what a process does next from one state: its poised
// operation, or that it has decided. Protocols are deterministic, so this
// is a pure function of (pid, state).
type poisedVal struct {
	op      Op
	decided bool
}

// transVal is one memoized transition: for a deterministic protocol over
// historyless objects, the successor (object value, process state) pair is
// a pure function of (pid, the actor's state, the targeted object's
// current value). It holds the refs of the successor slots and the
// successor state's content hash.
type transVal struct {
	valRef, stRef uint32
	sh            uint64
	// fpDelta is what the step XORs into the slot fingerprint: the two
	// touched slots' old contributions out, their new ones in. It is a
	// constant of the transition, which is identified by exactly those two
	// old slots.
	fpDelta uint64
}

// memoEntry is everything the stepper remembers about one (pid, actor
// state ref): the poised operation and the transitions taken from it so
// far. The operation fixes the targeted object, so a transition is
// identified within its entry by that object's value ref alone. How many
// values one state meets is the protocol's business and has no bound —
// Algorithm 1's lap counters keep producing new ones: an entry holds 15
// transitions on average and 39 at most on Table 1's row 3 at 1M states,
// 8 and 45 on the Theorem 10 search at n=16, k=4, 41 and 65 on n=3, m=2 at
// 1M — so the transitions get an index of their own, open-addressed on the
// value ref like the table the entry sits in, and a hit costs one short
// probe whatever the fan-in.
type memoEntry struct {
	live   bool
	pid    int32
	stRef  uint32
	poised poisedVal
	trans  []memoTrans // in the order they were first taken
	// index locates a transition by valRef: linear probing, a power of
	// two long and at most half full; 0 is a free slot, j+1 stands for
	// trans[j].
	index []uint32
}

type memoTrans struct {
	valRef uint32
	transVal
}

// indexStart is the first index slot probed for valRef, before masking.
func indexStart(valRef uint32) int { return int((uint64(valRef) * 0x9E3779B97F4A7C15) >> 32) }

// find returns the transition from e on the targeted value valRef, or nil.
// The pointer is valid until the next addTransition on e.
func (e *memoEntry) find(valRef uint32) *transVal {
	if len(e.index) == 0 {
		return nil
	}
	mask := len(e.index) - 1
	for i := indexStart(valRef) & mask; ; i = (i + 1) & mask {
		j := e.index[i]
		if j == 0 {
			return nil
		}
		if t := &e.trans[j-1]; t.valRef == valRef {
			return &t.transVal
		}
	}
}

// addTransition records tv as e's transition on a value find did not
// know, and returns the stored copy.
func (e *memoEntry) addTransition(valRef uint32, tv transVal) *transVal {
	e.trans = append(e.trans, memoTrans{valRef: valRef, transVal: tv})
	if 2*len(e.trans) > len(e.index) {
		e.index = make([]uint32, max(8, 2*len(e.index)))
		for j := range e.trans {
			e.place(j)
		}
	} else {
		e.place(len(e.trans) - 1)
	}
	return &e.trans[len(e.trans)-1].transVal
}

// place enters trans[j] in the index.
func (e *memoEntry) place(j int) {
	mask := len(e.index) - 1
	i := indexStart(e.trans[j].valRef) & mask
	for e.index[i] != 0 {
		i = (i + 1) & mask
	}
	e.index[i] = uint32(j + 1)
}

// stepMemo is the stepper's transition memo: an open-addressed table of
// memoEntry with linear probing, kept at most half full, probed from
// (pid, state ref).
type stepMemo struct {
	slots []memoEntry // length a power of two
	shift uint        // 64 - log2(len(slots))
	n     int
}

// newStepMemo returns an empty memo of 64 slots; it doubles as it fills,
// so a small search pays for the pairs it meets and the usual run, a few
// hundred (pid, state) pairs, for a few doublings.
func newStepMemo() *stepMemo {
	m := &stepMemo{}
	m.resize(64)
	return m
}

func (m *stepMemo) resize(size int) {
	old := m.slots
	m.slots = make([]memoEntry, size)
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i := range old {
		if e := &old[i]; e.live {
			*m.free(int(e.pid), e.stRef) = *e
		}
	}
}

// start is the first slot probed for (pid, stRef): the pair multiplied
// out to the table's top bits.
func (m *stepMemo) start(pid int, stRef uint32) int {
	return int(((uint64(stRef) ^ uint64(pid+1)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9) >> m.shift)
}

// find returns the entry of (pid, stRef), or nil. The pointer is valid
// until the next add.
func (m *stepMemo) find(pid int, stRef uint32) *memoEntry {
	mask := len(m.slots) - 1
	for i := m.start(pid, stRef); ; i = (i + 1) & mask {
		e := &m.slots[i]
		if !e.live {
			return nil
		}
		if e.stRef == stRef && e.pid == int32(pid) {
			return e
		}
	}
}

// free returns the first unused slot on (pid, stRef)'s probe sequence.
func (m *stepMemo) free(pid int, stRef uint32) *memoEntry {
	mask := len(m.slots) - 1
	i := m.start(pid, stRef)
	for m.slots[i].live {
		i = (i + 1) & mask
	}
	return &m.slots[i]
}

// add enters (pid, stRef), which find did not know, with its poised
// operation and no transitions yet.
func (m *stepMemo) add(pid int, stRef uint32, pe poisedVal) *memoEntry {
	if 2*(m.n+1) > len(m.slots) {
		m.resize(2 * len(m.slots))
	}
	m.n++
	e := m.free(pid, stRef)
	*e = memoEntry{live: true, pid: int32(pid), stRef: stRef, poised: pe}
	return e
}

// Stepper is the expansion hot path: a per-worker object that steps ref
// vectors over a slot dictionary, memoizing poised operations and whole
// transitions, which makes repeated transitions — the overwhelmingly
// common case in a BFS — allocation-free: a memo hit is one table probe,
// and no Poised, Observe, encoding or intern happens on it. One Stepper
// serves one goroutine; any number of them may share a Dict.
//
// NewStepperExact differs only in ApplyCOW, which it keeps memo-free:
// every call asks the protocol, so it is the reference the memoized step
// is tested against.
type Stepper struct {
	p     Protocol
	specs []ObjectSpec
	dict  *Dict
	memo  *stepMemo
	// memoFree makes ApplyCOW ask the protocol on every call
	// (NewStepperExact).
	memoFree bool
	// cache remembers the slots ApplyCOW resolved last.
	cache SlotCache
}

// NewStepperOn returns a Stepper for p that interns into and reads from
// d, a dictionary for p.
func NewStepperOn(p Protocol, d *Dict) *Stepper {
	return &Stepper{p: p, specs: p.Objects(), dict: d, memo: newStepMemo()}
}

// NewStepper returns a Stepper for p on a dictionary of its own.
func NewStepper(p Protocol) *Stepper { return NewStepperOn(p, NewDict(p)) }

// NewStepperExact returns a Stepper for p on a dictionary of its own whose
// ApplyCOW asks the protocol on every call.
func NewStepperExact(p Protocol) *Stepper {
	st := NewStepper(p)
	st.memoFree = true
	return st
}

// Arena returns the stepper's slot dictionary (diagnostics and tests).
func (st *Stepper) Arena() *Dict { return st.dict }

// Slots returns the slot-vector length for the stepper's protocol: one
// slot per object plus one per process.
func (st *Stepper) Slots() int { return len(st.specs) + st.p.NumProcesses() }

// poisedOf asks the protocol what pid does next from state s: its poised
// operation, or that it has decided (no step to take).
func (st *Stepper) poisedOf(pid int, s State) (poisedVal, error) {
	op, ok := st.p.Poised(pid, s)
	if !ok {
		// Poised contract: ok is false exactly when the process has
		// decided. A protocol for which an undecided process is not
		// poised is buggy; fail loudly (the pre-arena engine surfaced
		// this through model.Apply's error) instead of silently
		// pruning the process from the exploration.
		if _, decided := st.p.Decision(s); !decided {
			return poisedVal{}, fmt.Errorf("model: process %d is undecided but not poised", pid)
		}
		return poisedVal{decided: true}, nil
	}
	if op.Object < 0 || op.Object >= len(st.specs) {
		return poisedVal{}, fmt.Errorf("model: process %d poised on object %d of %d", pid, op.Object, len(st.specs))
	}
	return poisedVal{op: op}, nil
}

// apply computes pid's step op through the protocol from the targeted
// value val and the actor's state s, whose content hashes are vh and sh,
// and interns the two successor slots.
func (st *Stepper) apply(pid int, op Op, val Value, vh uint64, s State, sh uint64) (transVal, error) {
	obj, stateSlot := op.Object, len(st.specs)+pid
	next, resp, err := st.specs[obj].Type.Apply(val, op)
	if err != nil {
		return transVal{}, fmt.Errorf("model: process %d applying %v: %w", pid, op, err)
	}
	d := st.dict
	tv := transVal{valRef: d.InternValue(next), stRef: d.InternState(st.p.Observe(pid, s, resp))}
	tv.sh = d.sts.at(tv.stRef).h
	tv.fpDelta = mixSlot(obj, vh) ^ mixSlot(obj, d.vals.at(tv.valRef).h) ^ mixSlot(stateSlot, sh) ^ mixSlot(stateSlot, tv.sh)
	return tv, nil
}

// entry returns the memo entry of (pid, stRef), asking the protocol for
// its poised operation if the memo has none. It is valid until the next
// entry call.
func (st *Stepper) entry(pid int, stRef uint32) (*memoEntry, error) {
	if e := st.memo.find(pid, stRef); e != nil {
		return e, nil
	}
	pe, err := st.poisedOf(pid, st.dict.state(stRef))
	if err != nil {
		return nil, err
	}
	return st.memo.add(pid, stRef, pe), nil
}

// transition returns e's transition on the targeted value valRef,
// computing and memoizing it if it is new. It is valid until the next
// entry call.
func (st *Stepper) transition(e *memoEntry, valRef uint32) (*transVal, error) {
	if tv := e.find(valRef); tv != nil {
		return tv, nil
	}
	d := st.dict
	v, s := d.vals.at(valRef), d.sts.at(e.stRef)
	tv, err := st.apply(int(e.pid), e.poised.op, v.obj, v.h, s.obj, s.h)
	if err != nil {
		return nil, err
	}
	return e.addTransition(valRef, tv), nil
}

// Step is one planned step: what Plan found process pid does from a parent
// configuration, before any successor exists. It is held by value — a copy
// of the memoised transition, not a pointer into the memo — so it stays
// valid however many lookups, new transitions and memo growths follow it:
// an expansion plans every successor of a chunk of nodes first and installs
// only the ones the visited set had not seen.
type Step struct {
	obj int
	tv  transVal
}

// Fingerprint returns the successor's slot fingerprint given the parent's:
// one XOR with the transition's delta, never a re-encode.
func (s *Step) Fingerprint(parentFP uint64) uint64 { return parentFP ^ s.tv.fpDelta }

// StateHash returns the content hash of the actor's state in the
// successor: all the reduction layer needs to update its orbit-canonical
// fingerprint (CanonicalSlotFingerprint) without the successor.
func (s *Step) StateHash() uint64 { return s.tv.sh }

// Plan looks up the poised step of process pid from the configuration
// whose ref vector is parent (length Slots()) into s, without building the
// successor; ok is false when pid has decided (no step to take). A memo
// hit calls nothing in the protocol and interns nothing.
func (st *Stepper) Plan(parent []uint32, pid int, s *Step) (ok bool, err error) {
	e, err := st.entry(pid, parent[len(st.specs)+pid])
	if e == nil || e.poised.decided {
		return false, err
	}
	obj := e.poised.op.Object
	tv, err := st.transition(e, parent[obj])
	if tv == nil {
		return false, err
	}
	s.obj, s.tv = obj, *tv
	return true, nil
}

// Install writes into dst the ref vector of the successor of parent that
// pid's planned step s leads to: parent's with the two touched slots
// replaced. Both have length Slots() and may not alias. The successor's
// fingerprint is s.Fingerprint(parent's).
func (st *Stepper) Install(parent []uint32, pid int, s *Step, dst []uint32) {
	copy(dst, parent)
	dst[s.obj] = s.tv.valRef
	dst[len(st.specs)+pid] = s.tv.stRef
}

// InitSlots interns every slot of c in place (rewriting c's slots to
// their canonical representatives), fills slotH — which must have length
// Slots() — with the per-slot content hashes, and returns the slot
// fingerprint. It is the root-of-exploration counterpart of ApplyCOW.
func (st *Stepper) InitSlots(c *Config, slotH []uint64) uint64 {
	refs := make([]uint32, st.Slots())
	fp := st.dict.Intern(c, refs)
	st.dict.Materialise(refs, c)
	for i, ref := range refs {
		slotH[i] = st.dict.SlotHash(i, ref)
	}
	return fp
}

// ApplyCOW is Plan and Install for a caller holding a Config and its
// slot-hash vector rather than refs (the benchmark's step probe, tests):
// it writes pid's successor from parent into dst — every slot the step
// did not touch shared with the parent — and its slot hashes into dstH,
// and returns its slot fingerprint; ok is false when pid has decided.
// parent's slots must be canonical (InitSlots, ApplyCOW); dst's slices
// must have the configuration's shape, and parentH and dstH length
// Slots(). The two slots the step reads resolve through the dictionary by
// their hashes, the trust a fingerprint-keyed run places in them. A
// NewStepperExact stepper resolves nothing and memoizes nothing: it asks
// the protocol.
func (st *Stepper) ApplyCOW(parent *Config, parentFP uint64, parentH []uint64, pid int, dst *Config, dstH []uint64) (fp uint64, ok bool, err error) {
	stateSlot := len(st.specs) + pid
	var obj int
	var tv transVal
	if st.memoFree {
		pe, err := st.poisedOf(pid, parent.States[pid])
		if err != nil || pe.decided {
			return 0, false, err
		}
		obj = pe.op.Object
		if tv, err = st.apply(pid, pe.op, parent.Objects[obj], parentH[obj], parent.States[pid], parentH[stateSlot]); err != nil {
			return 0, false, err
		}
	} else {
		e, err := st.entry(pid, st.slotRef(parent, stateSlot, parentH[stateSlot]))
		if e == nil || e.poised.decided {
			return 0, false, err
		}
		obj = e.poised.op.Object
		t, err := st.transition(e, st.slotRef(parent, obj, parentH[obj]))
		if t == nil {
			return 0, false, err
		}
		tv = *t
	}
	copy(dst.Objects, parent.Objects)
	copy(dst.States, parent.States)
	copy(dstH, parentH)
	dst.Objects[obj] = st.dict.value(tv.valRef)
	dst.States[pid] = st.dict.state(tv.stRef)
	dstH[obj] = st.dict.vals.at(tv.valRef).h
	dstH[stateSlot] = tv.sh
	return parentFP ^ tv.fpDelta, true, nil
}

// slotRef is the ref of c's slot i, whose content hash is h: resolved by
// the hash, or interned if the dictionary has never seen it.
func (st *Stepper) slotRef(c *Config, i int, h uint64) uint32 {
	st.cache.fit(st.Slots())
	if ref, ok := st.dict.resolveCached(i, h, nil, &st.cache); ok {
		return ref
	}
	if i < len(st.specs) {
		return st.dict.InternValue(c.Objects[i])
	}
	return st.dict.InternState(c.States[i-len(st.specs)])
}
