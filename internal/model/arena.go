package model

import (
	"fmt"
	"math/bits"
)

// This file implements the zero-allocation exploration hot path: an
// append-only intern arena for object values and process states, and a
// copy-on-write Apply (Stepper.ApplyCOW) that maintains per-slot content
// hashes so a successor's fingerprint is computed by re-hashing only the
// two slots a step touches, instead of re-encoding the whole Config.
//
// Design:
//
//   - An Arena is owned by exactly one explorer worker (it is not safe
//     for concurrent use). Each distinct value/state *encoding* is stored
//     once in an append-only byte arena; interning returns a dense ref,
//     the canonical Value/State, and the 64-bit FNV-1a hash of the
//     encoding (the slot hash). Configurations produced by the same
//     worker therefore share canonical objects for all repeated slots —
//     the memory discipline of compact shared pools.
//
//   - Slot hashes are *content* hashes: equal encodings yield equal
//     hashes in every arena, so fingerprints assembled from them agree
//     across workers even though each worker interns independently.
//
//   - The slot fingerprint of a configuration is the XOR over all slots
//     of mixSlot(slot, contentHash). XOR makes the combine invertible:
//     replacing one slot's content is two XORs, which is what lets
//     ApplyCOW return the successor fingerprint after hashing only the
//     touched object slot and process-state slot. mixSlot's strong
//     position-salted mixing keeps the combine from cancelling across
//     slots. Like the FNV fingerprint, distinct configurations may
//     collide (~2^-64 per pair, the bitstate trade-off); exact-encoding
//     keying remains available for certificate searches.
//
//   - A step the worker has taken before costs one table probe: the
//     stepper's memo (stepMemo) is open-addressed on the actor's (pid,
//     state content hash) — a hash the node already carries, so nothing
//     is hashed to look it up — and the entry found holds the poised
//     operation together with every transition seen from it, one per
//     value of the targeted object.
//
//   - Exact-key runs get the same shortcuts without trusting a hash
//     (NewStepperExact, Plan with the parent's encoding): the same table,
//     whose entries then also hold the touched slots' encodings and match
//     only when those compare equal byte for byte, and a successor's exact key is spliced
//     from its parent's (SlotEncoding, slots.go) instead of re-encoded.
//     The slot hashes and the fingerprint are maintained there too — the
//     stores order and partition by them, the memo probes by them — but
//     nothing is decided by them alone.

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
// so every configuration has the same fingerprint: the test seam
// (export_test.go) behind the proof that exact-key runs rest no decision
// on a hash. Only tests set it, and never while a stepper is in use.
var degenerateSlotHash bool

// hashEncoding is the slot-content hash: FNV-1a over the compact
// encoding bytes.
func hashEncoding(enc []byte) uint64 {
	if degenerateSlotHash {
		return 0
	}
	return fnv1a(fnvOffset64, enc)
}

// SlotHash is the content hash of the slot whose encoding is enc (a
// SlotSpans span): the entry a slot-hash vector holds for that slot. An
// exact-key node record carries no vector, and its reader rebuilds it
// from the key's spans with this.
func SlotHash(enc []byte) uint64 { return hashEncoding(enc) }

// MixSlotHash exposes the slot-fingerprint combine — mixSlot(slot, h) —
// to the explorer's reduction layer, which reassigns class slot hashes
// to canonical positions without re-encoding any slot. XORing a slot's
// MixSlotHash out of a Config.SlotFingerprint and a replacement's in is
// exactly how ApplyCOW maintains fingerprints incrementally.
func MixSlotHash(slot int, h uint64) uint64 { return mixSlot(slot, h) }

// SlotFingerprint returns the incremental-compatible fingerprint of c,
// computed from scratch: the XOR over all slots of the position-mixed
// content hash. Stepper.ApplyCOW maintains exactly this quantity
// incrementally; the equality is what the arena fuzz test pins down.
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

// arenaEntry locates one interned encoding: its span in the byte arena
// and the canonical interface object it decodes to. (The content hash is
// not stored: the index maps are keyed by it, so every candidate in a
// collision chain already shares it and lookups compare encoding bytes.)
type arenaEntry struct {
	off, end uint32
	val      Value // canonical Value (value pool entries)
	st       State // canonical State (state pool entries)
}

// Arena is a per-worker append-only intern pool for object values and
// process states. It must not be shared between goroutines; the canonical
// Values and States it hands out are immutable and may be shared freely.
type Arena struct {
	data    []byte
	vals    []arenaEntry
	sts     []arenaEntry
	valIdx  map[uint64][]uint32 // content hash -> value refs (collision chain)
	stIdx   map[uint64][]uint32 // content hash -> state refs
	scratch []byte
}

// NewArena returns an empty intern arena. Its indexes start empty and grow
// with what is interned: a small search pays for what it visits.
func NewArena() *Arena {
	return &Arena{
		valIdx:  map[uint64][]uint32{},
		stIdx:   map[uint64][]uint32{},
		scratch: make([]byte, 0, 128),
	}
}

// Len reports the number of interned values and states (diagnostics).
func (a *Arena) Len() (values, states int) { return len(a.vals), len(a.sts) }

// internBytes finds or adds enc in the given pool and returns the ref.
func (a *Arena) internBytes(enc []byte, h uint64, entries *[]arenaEntry, idx map[uint64][]uint32) (uint32, bool) {
	for _, ref := range idx[h] {
		e := (*entries)[ref]
		if string(a.data[e.off:e.end]) == string(enc) { // compiles to memcmp, no alloc
			return ref, true
		}
	}
	off := uint32(len(a.data))
	a.data = append(a.data, enc...)
	ref := uint32(len(*entries))
	*entries = append(*entries, arenaEntry{off: off, end: uint32(len(a.data))})
	idx[h] = append(idx[h], ref)
	return ref, false
}

// InternValue returns the canonical representative of v and the content
// hash of its encoding. The first instance seen for an encoding becomes
// canonical; later equal values are dropped in its favor.
func (a *Arena) InternValue(v Value) (Value, uint64) {
	ref, h := a.internValue(v)
	return a.vals[ref].val, h
}

func (a *Arena) internValue(v Value) (uint32, uint64) {
	a.scratch = appendValue(a.scratch[:0], v)
	h := hashEncoding(a.scratch)
	ref, found := a.internBytes(a.scratch, h, &a.vals, a.valIdx)
	if !found {
		a.vals[ref].val = v
	}
	return ref, h
}

// InternState is InternValue for process states. States with equal Keys
// are interchangeable by the model's State contract, so canonicalizing
// them is behavior-preserving — including for fields a protocol excludes
// from its Key (e.g. core's diagnostic lap counter): such fields carry no
// behavioral content by that same contract, and an engine-produced
// configuration may hold any Key-equal representative's values for them.
func (a *Arena) InternState(s State) (State, uint64) {
	ref, h := a.internState(s)
	return a.sts[ref].st, h
}

func (a *Arena) internState(s State) (uint32, uint64) {
	a.scratch = appendState(a.scratch[:0], s)
	h := hashEncoding(a.scratch)
	ref, found := a.internBytes(a.scratch, h, &a.sts, a.stIdx)
	if !found {
		a.sts[ref].st = s
	}
	return ref, h
}

// encoding returns the stored encoding of an interned entry. The bytes
// are never rewritten (the arena only appends), so the slice stays valid
// across later interns.
func (a *Arena) encoding(e arenaEntry) []byte { return a.data[e.off:e.end] }

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
// current value). It holds the canonical successor slots, their content
// hashes, and the arena refs of their encodings, which AppendKey splices
// into the successor's key.
type transVal struct {
	val           Value // canonical successor value of the targeted object
	st            State // canonical successor state of the actor
	vh, sh        uint64
	valRef, stRef uint32
	// fpDelta is what the step XORs into the slot fingerprint: the two
	// touched slots' old contributions out, their new ones in. It is a
	// constant of the transition, which is identified by the content
	// hashes of exactly those two old slots.
	fpDelta uint64
}

// memoEntry is everything the stepper remembers about one (pid, actor
// state): the poised operation and the transitions taken from it so far.
// The operation fixes the targeted object, so a transition is identified
// within its entry by that object's value alone. How many values one
// state meets is the protocol's business and has no bound — Algorithm 1's
// lap counters keep producing new ones: an entry holds 15 transitions on
// average and 39 at most on Table 1's row 3 at 1M states, 8 and 45 on the
// Theorem 10 search at n=16, k=4, 41 and 65 on n=3, m=2 at 1M — so the
// transitions get an index of their own, open-addressed on the value's
// content hash like the table the entry sits in, and a hit costs one
// short probe whatever the fan-in.
//
// stEnc and each transition's valEnc are the exact encodings of the state
// and of the value. A hash-keyed stepper leaves them empty, so for it a
// match is (pid, hash) equality; an exact stepper fills them in, so for
// it a match also requires equal bytes — equal encodings have equal
// content hashes, so comparing the hash first loses nothing. One
// comparison serves both.
type memoEntry struct {
	live   bool
	pid    int32
	stH    uint64
	stEnc  string
	poised poisedVal
	trans  []memoTrans // in the order they were first taken
	// index locates a transition by valH: linear probing, a power of two
	// long and at most half full; 0 is a free slot, j+1 stands for
	// trans[j].
	index []uint32
}

type memoTrans struct {
	valH   uint64
	valEnc string
	transVal
}

// indexStart is the first index slot probed for valH, before masking
// (content hashes are FNV-1a, whose low bits alone are weak).
func indexStart(valH uint64) int { return int((valH * 0xBF58476D1CE4E5B9) >> 32) }

// find returns the transition from e on the targeted value (valH, valEnc),
// or nil. The pointer is valid until the next addTransition on e.
func (e *memoEntry) find(valH uint64, valEnc []byte) *transVal {
	if len(e.index) == 0 {
		return nil
	}
	mask := len(e.index) - 1
	for i := indexStart(valH) & mask; ; i = (i + 1) & mask {
		j := e.index[i]
		if j == 0 {
			return nil
		}
		if t := &e.trans[j-1]; t.valH == valH && t.valEnc == string(valEnc) {
			return &t.transVal
		}
	}
}

// addTransition records tv as e's transition on a value find did not
// know, and returns the stored copy.
func (e *memoEntry) addTransition(valH uint64, valEnc []byte, tv transVal) *transVal {
	e.trans = append(e.trans, memoTrans{valH: valH, valEnc: string(valEnc), transVal: tv})
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
	i := indexStart(e.trans[j].valH) & mask
	for e.index[i] != 0 {
		i = (i + 1) & mask
	}
	e.index[i] = uint32(j + 1)
}

// stepMemo is the stepper's transition memo: an open-addressed table of
// memoEntry with linear probing, kept at most half full. The probe starts
// from (pid, stH) — slot content hashes the engine carries per node — so a
// lookup hashes no bytes and builds no key.
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
			*m.free(int(e.pid), e.stH) = *e
		}
	}
}

// start is the first slot probed for (pid, stH): the pair multiplied out
// to the table's top bits (content hashes are FNV-1a, whose low bits alone
// are weak; with degenerate hashes it is a function of pid only, and the
// probe sequence degrades to a scan, never to a wrong answer).
func (m *stepMemo) start(pid int, stH uint64) int {
	return int(((stH ^ uint64(pid+1)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9) >> m.shift)
}

// find returns the entry of (pid, stH, stEnc), or nil. The pointer is
// valid until the next add.
func (m *stepMemo) find(pid int, stH uint64, stEnc []byte) *memoEntry {
	mask := len(m.slots) - 1
	for i := m.start(pid, stH); ; i = (i + 1) & mask {
		e := &m.slots[i]
		if !e.live {
			return nil
		}
		if e.stH == stH && e.pid == int32(pid) && e.stEnc == string(stEnc) {
			return e
		}
	}
}

// free returns the first unused slot on (pid, stH)'s probe sequence.
func (m *stepMemo) free(pid int, stH uint64) *memoEntry {
	mask := len(m.slots) - 1
	i := m.start(pid, stH)
	for m.slots[i].live {
		i = (i + 1) & mask
	}
	return &m.slots[i]
}

// add enters (pid, stH, stEnc), which find did not know, with its poised
// operation and no transitions yet.
func (m *stepMemo) add(pid int, stH uint64, stEnc []byte, pe poisedVal) *memoEntry {
	if 2*(m.n+1) > len(m.slots) {
		m.resize(2 * len(m.slots))
	}
	m.n++
	e := m.free(pid, stH)
	*e = memoEntry{live: true, pid: int32(pid), stH: stH, stEnc: string(stEnc), poised: pe}
	return e
}

// Stepper is the arena-backed expansion hot path: a per-worker object
// that performs copy-on-write Apply steps, interning the touched slots
// and maintaining the incremental slot fingerprint. One Stepper serves
// one goroutine.
//
// Both kinds of Stepper memoize poised operations and whole transitions
// in one stepMemo, which makes repeated transitions — the overwhelmingly
// common case in a BFS — allocation-free: a memo hit is one table probe,
// and no Poised, Observe or encoding call happens on it. They differ in
// what a hit rests on:
//
//   - NewStepper matches entries by slot content hash (Plan, penc nil), and
//     so inherits the fingerprint mode's ~2^-64 per-pair collision tolerance.
//
//   - NewStepperExact, which exact-keyed (certificate) searches use,
//     matches them by the encodings themselves — (pid, the actor's state
//     encoding) and, within the entry, the targeted value's encoding,
//     compared byte for byte (Plan with penc). Equal encodings are equal
//     Keys, and states with equal Keys are interchangeable by the State contract
//     interning already relies on, so a hit returns exactly what the
//     protocol would. The encodings come from the parent's exact key, so
//     nothing is re-encoded either. Its Plan without penc (and so its
//     ApplyCOW) stays memo-free: every call asks the protocol (checkpoint
//     replay, and the reference the memoized step is tested against).
type Stepper struct {
	p     Protocol
	specs []ObjectSpec
	arena *Arena
	exact bool
	memo  *stepMemo
}

// NewStepper returns a Stepper for p with its own arena and hash-keyed
// transition memoization (fingerprint-grade guarantees).
func NewStepper(p Protocol) *Stepper {
	return &Stepper{p: p, specs: p.Objects(), arena: NewArena(), memo: newStepMemo()}
}

// NewStepperExact returns the Stepper of exact-key runs: Plan memoizes on
// the exact encodings it is handed and not at all without them, so no hash
// collision can ever substitute a wrong transition.
func NewStepperExact(p Protocol) *Stepper {
	return &Stepper{p: p, specs: p.Objects(), arena: NewArena(), exact: true, memo: newStepMemo()}
}

// Arena exposes the stepper's intern pool (diagnostics and tests).
func (st *Stepper) Arena() *Arena { return st.arena }

// Slots returns the slot-hash vector length for the stepper's protocol:
// one slot per object plus one per process.
func (st *Stepper) Slots() int { return len(st.specs) + st.p.NumProcesses() }

// InitSlots interns every slot of c in place (rewriting c's slots to
// their canonical representatives), fills slotH — which must have length
// Slots() — with the per-slot content hashes, and returns the slot
// fingerprint. It is the root-of-exploration counterpart of ApplyCOW.
func (st *Stepper) InitSlots(c *Config, slotH []uint64) uint64 {
	var fp uint64
	for i, v := range c.Objects {
		cv, h := st.arena.InternValue(v)
		c.Objects[i] = cv
		slotH[i] = h
		fp ^= mixSlot(i, h)
	}
	n := len(c.Objects)
	for pid, s := range c.States {
		cs, h := st.arena.InternState(s)
		c.States[pid] = cs
		slotH[n+pid] = h
		fp ^= mixSlot(n+pid, h)
	}
	return fp
}

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

// transition computes pid's step op from parent through the protocol and
// interns the two successor slots.
func (st *Stepper) transition(pid int, op Op, parent *Config, parentH []uint64) (transVal, error) {
	obj, stateSlot := op.Object, len(st.specs)+pid
	next, resp, err := st.specs[obj].Type.Apply(parent.Objects[obj], op)
	if err != nil {
		return transVal{}, fmt.Errorf("model: process %d applying %v: %w", pid, op, err)
	}
	a := st.arena
	valRef, vh := a.internValue(next)
	stRef, sh := a.internState(st.p.Observe(pid, parent.States[pid], resp))
	return transVal{
		val: a.vals[valRef].val, st: a.sts[stRef].st, vh: vh, sh: sh, valRef: valRef, stRef: stRef,
		fpDelta: mixSlot(obj, parentH[obj]) ^ mixSlot(obj, vh) ^
			mixSlot(stateSlot, parentH[stateSlot]) ^ mixSlot(stateSlot, sh),
	}, nil
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

// Plan looks up the poised step of process pid from parent into s without
// building the successor; ok is false when pid has decided (no step to
// take). parentH is parent's slot-hash vector (length Slots()). penc is nil
// for fingerprint-keyed steps — a NewStepper stepper answers those from its
// hash-keyed memo, a NewStepperExact one asks the protocol every time — and
// parent's own exact encoding for the step of exact-key runs (NewStepperExact
// steppers only): the actor's state span and the targeted object's value
// span are then what the memo matches on, byte for byte, so a hit skips
// Poised, Type.Apply, Observe and both interns.
func (st *Stepper) Plan(parent *Config, parentH []uint64, pid int, penc *SlotEncoding, s *Step) (ok bool, err error) {
	if st.exact && penc == nil {
		pe, err := st.poisedOf(pid, parent.States[pid])
		if err != nil || pe.decided {
			return false, err
		}
		s.obj = pe.op.Object
		s.tv, err = st.transition(pid, pe.op, parent, parentH)
		return err == nil, err
	}
	obj, tv, err := st.lookup(parent, parentH, pid, penc)
	if tv == nil {
		return false, err
	}
	s.obj, s.tv = obj, *tv
	return true, nil
}

// Install writes into dst the successor of parent that pid's planned step s
// leads to, without mutating parent: every slot the step did not touch is
// shared with the parent (canonical interned objects), which is the
// copy-on-write discipline, and dstH receives parent's slot hashes with the
// two touched slots updated. dst's slices must already have the
// configuration's shape (the engine pools them); parentH and dstH must both
// have length Slots() and may not alias. The successor's fingerprint is
// s.Fingerprint(parent's).
func (st *Stepper) Install(parent *Config, parentH []uint64, pid int, s *Step, dst *Config, dstH []uint64) {
	copy(dst.Objects, parent.Objects)
	copy(dst.States, parent.States)
	copy(dstH, parentH)
	dst.Objects[s.obj] = s.tv.val
	dst.States[pid] = s.tv.st
	dstH[s.obj] = s.tv.vh
	dstH[len(st.specs)+pid] = s.tv.sh
}

// AppendKey appends the exact key of the successor pid's planned step s
// leads to — byte for byte its Config.AppendEncoding — to key and returns
// the extended slice. penc must hold the parent's exact encoding, the one s
// was planned from: the successor's key is that with the two touched spans
// replaced, so no slot is re-encoded.
func (st *Stepper) AppendKey(key []byte, penc *SlotEncoding, pid int, s *Step) []byte {
	a := st.arena
	return penc.splice(key, s.obj, a.encoding(a.vals[s.tv.valRef]), len(st.specs)+pid, a.encoding(a.sts[s.tv.stRef]))
}

// ApplyCOW is Plan and Install in one call, for a caller that wants the
// successor whatever it is (checkpoint replay, the benchmark's step probe):
// it writes pid's successor from parent into dst and returns its slot
// fingerprint. ok is false when pid has decided.
func (st *Stepper) ApplyCOW(parent *Config, parentFP uint64, parentH []uint64, pid int, dst *Config, dstH []uint64) (fp uint64, ok bool, err error) {
	var s Step
	if ok, err = st.Plan(parent, parentH, pid, nil, &s); !ok {
		return 0, false, err
	}
	st.Install(parent, parentH, pid, &s, dst, dstH)
	return s.Fingerprint(parentFP), true, nil
}

// lookup is the memoized step both keyings share: the entry of (pid, the
// actor's state) gives the poised operation and with it the targeted
// object, and the entry's transition on that object's value gives the
// successor slots — a hit on both calls nothing in the protocol and
// interns nothing. penc is nil for the hash-keyed step and parent's exact
// encoding for the exact one, whose matches then rest on its spans. tv is
// nil when pid has decided (or on an error), and otherwise points into the
// memo: it is valid only until the stepper's next lookup, which may add a
// transition to the same entry or grow the table, so Plan copies it out.
func (st *Stepper) lookup(parent *Config, parentH []uint64, pid int, penc *SlotEncoding) (obj int, tv *transVal, err error) {
	stateSlot := len(st.specs) + pid
	stH := parentH[stateSlot]
	var stEnc, valEnc []byte
	if penc != nil {
		stEnc = penc.spans[stateSlot]
	}
	e := st.memo.find(pid, stH, stEnc)
	if e == nil {
		pe, err := st.poisedOf(pid, parent.States[pid])
		if err != nil {
			return 0, nil, err
		}
		e = st.memo.add(pid, stH, stEnc, pe)
	}
	if e.poised.decided {
		return 0, nil, nil
	}
	obj = e.poised.op.Object
	if penc != nil {
		valEnc = penc.spans[obj]
	}
	if tv = e.find(parentH[obj], valEnc); tv == nil {
		t, err := st.transition(pid, e.poised.op, parent, parentH)
		if err != nil {
			return 0, nil, err
		}
		tv = e.addTransition(parentH[obj], valEnc, t)
	}
	return obj, tv, nil
}
