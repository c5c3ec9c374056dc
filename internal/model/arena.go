package model

import "fmt"

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
//   - Exact-key runs get the same two shortcuts without trusting a hash
//     (NewStepperExact, ApplyKeyed): transitions are memoized by the
//     touched slots' encodings, compared byte for byte, and a successor's
//     exact key is spliced from its parent's (SlotEncoding, slots.go)
//     instead of re-encoded. The slot hashes and the fingerprint are
//     maintained there too — the stores order and partition by them —
//     but nothing is decided by them alone.

// mixSlot combines a slot index with the content hash of the value stored
// there into that slot's fingerprint contribution (splitmix64-style
// finalizer over a position-salted hash).
func mixSlot(slot int, h uint64) uint64 {
	x := h ^ (uint64(slot)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

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

// NewArena returns an empty intern arena.
func NewArena() *Arena {
	return &Arena{
		valIdx:  make(map[uint64][]uint32, 256),
		stIdx:   make(map[uint64][]uint32, 1024),
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

// poisedKey memoizes Poised by (pid, state content hash): protocols are
// deterministic, so the poised operation — and whether the process has
// decided — is a pure function of the pair.
type poisedKey struct {
	pid int32
	stH uint64
}

type poisedVal struct {
	op      Op
	decided bool
}

// transKey memoizes a whole transition: for a deterministic protocol over
// historyless objects, the successor (object value, process state) pair
// is a pure function of (pid, the actor's state, the targeted object's
// current value). Keying by content hashes makes the memo arena- and
// worker-independent.
type transKey struct {
	pid  int32
	obj  int32
	stH  uint64 // actor state slot hash
	valH uint64 // targeted object slot hash
}

type transVal struct {
	val Value // canonical successor value of the targeted object
	st  State // canonical successor state of the actor
	vh  uint64
	sh  uint64
}

// exactVal is the exact memo's transition entry: a transVal plus the
// arena refs of the two successor encodings, which ApplyKeyed splices
// into the successor's key.
type exactVal struct {
	transVal
	valRef, stRef uint32
}

// Stepper is the arena-backed expansion hot path: a per-worker object
// that performs copy-on-write Apply steps, interning the touched slots
// and maintaining the incremental slot fingerprint. One Stepper serves
// one goroutine.
//
// Both kinds of Stepper memoize poised operations and whole transitions,
// which makes repeated transitions — the overwhelmingly common case in a
// BFS — allocation-free: no Poised, Observe or encoding call happens on
// a memo hit. They differ in what a hit rests on:
//
//   - NewStepper keys the memos by slot content hash (ApplyCOW), and so
//     inherits the fingerprint mode's ~2^-64 per-pair collision tolerance.
//
//   - NewStepperExact, which exact-keyed (certificate) searches use, keys
//     them by the encodings themselves — (pid, the actor's state encoding)
//     and (pid, state encoding, the targeted value's encoding), compared
//     byte for byte (ApplyKeyed). Equal encodings are equal Keys, and
//     states with equal Keys are interchangeable by the State contract
//     interning already relies on, so a hit returns exactly what the
//     protocol would. The encodings come from the parent's exact key, so
//     nothing is re-encoded either. Its ApplyCOW stays memo-free: every
//     call asks the protocol (checkpoint replay, and the reference the
//     memoized step is tested against).
type Stepper struct {
	p      Protocol
	specs  []ObjectSpec
	arena  *Arena
	poised map[poisedKey]poisedVal
	trans  map[transKey]transVal

	// The exact memos and their key scratch (NewStepperExact only).
	exPoised map[string]poisedVal
	exTrans  map[string]exactVal
	mkey     []byte
}

// NewStepper returns a Stepper for p with its own arena and hash-keyed
// transition memoization (fingerprint-grade guarantees).
func NewStepper(p Protocol) *Stepper {
	return &Stepper{
		p: p, specs: p.Objects(), arena: NewArena(),
		poised: make(map[poisedKey]poisedVal, 1024),
		trans:  make(map[transKey]transVal, 4096),
	}
}

// NewStepperExact returns the Stepper of exact-key runs: ApplyKeyed
// memoizes on exact encodings and ApplyCOW not at all, so no hash
// collision can ever substitute a wrong transition.
func NewStepperExact(p Protocol) *Stepper {
	return &Stepper{
		p: p, specs: p.Objects(), arena: NewArena(),
		exPoised: make(map[string]poisedVal, 1024),
		exTrans:  make(map[string]exactVal, 4096),
	}
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

// PoisedObject returns the index of the object process pid's poised
// operation targets in c, or ok == false when pid has decided. It shares
// ApplyCOW's poised memo (stH must be pid's state slot hash, the memo
// key), so on warm paths it costs one map probe and no protocol call —
// what lets the sleep-set reducer ask "which object would pid touch?"
// for every process of a node without re-deriving operations.
func (st *Stepper) PoisedObject(c *Config, pid int, stH uint64) (int, bool) {
	if st.poised != nil {
		if pe, hit := st.poised[poisedKey{pid: int32(pid), stH: stH}]; hit {
			if pe.decided {
				return 0, false
			}
			return pe.op.Object, true
		}
	}
	op, ok := st.p.Poised(pid, c.States[pid])
	if !ok {
		if st.poised != nil {
			if _, decided := st.p.Decision(c.States[pid]); decided {
				st.poised[poisedKey{pid: int32(pid), stH: stH}] = poisedVal{decided: true}
			}
		}
		return 0, false
	}
	if st.poised != nil {
		st.poised[poisedKey{pid: int32(pid), stH: stH}] = poisedVal{op: op}
	}
	return op.Object, true
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

// transition computes pid's step op from (object value v, state s)
// through the protocol and interns the two successor slots.
func (st *Stepper) transition(pid int, op Op, v Value, s State) (exactVal, error) {
	next, resp, err := st.specs[op.Object].Type.Apply(v, op)
	if err != nil {
		return exactVal{}, fmt.Errorf("model: process %d applying %v: %w", pid, op, err)
	}
	a := st.arena
	valRef, vh := a.internValue(next)
	stRef, sh := a.internState(st.p.Observe(pid, s, resp))
	return exactVal{
		transVal: transVal{val: a.vals[valRef].val, st: a.sts[stRef].st, vh: vh, sh: sh},
		valRef:   valRef, stRef: stRef,
	}, nil
}

// install writes into dst the successor of parent in which pid's step put
// tv into object obj and pid's state: every other slot is shared with the
// parent (canonical interned objects), which is the copy-on-write
// discipline. dstH receives parent's slot hashes with the two touched
// slots updated, and the returned fingerprint is the successor's —
// four XORs, never a full re-encode.
func (st *Stepper) install(parent *Config, parentFP uint64, parentH []uint64, pid, obj int, tv *transVal, dst *Config, dstH []uint64) uint64 {
	stateSlot := len(st.specs) + pid
	copy(dst.Objects, parent.Objects)
	copy(dst.States, parent.States)
	copy(dstH, parentH)
	dst.Objects[obj] = tv.val
	dst.States[pid] = tv.st
	fp := parentFP ^
		mixSlot(obj, parentH[obj]) ^ mixSlot(obj, tv.vh) ^
		mixSlot(stateSlot, parentH[stateSlot]) ^ mixSlot(stateSlot, tv.sh)
	dstH[obj] = tv.vh
	dstH[stateSlot] = tv.sh
	return fp
}

// ApplyCOW performs the poised step of process pid from parent, writing
// the successor into dst without mutating parent. dst's slices must
// already have the configuration's shape (the engine pools them); see
// install for what dst, dstH and the returned fingerprint hold.
//
// ok is false when pid has decided (no step to take). parentH and dstH
// must both have length Slots() and may not alias.
func (st *Stepper) ApplyCOW(parent *Config, parentFP uint64, parentH []uint64, pid int, dst *Config, dstH []uint64) (fp uint64, ok bool, err error) {
	stH := parentH[len(st.specs)+pid]

	// Fast path: poised-op and transition memo hits recycle the interned
	// successor slots without calling into the protocol at all.
	var pe poisedVal
	var havePoised bool
	if st.poised != nil {
		if pe, havePoised = st.poised[poisedKey{pid: int32(pid), stH: stH}]; havePoised && !pe.decided {
			obj := pe.op.Object
			if tv, hit := st.trans[transKey{pid: int32(pid), obj: int32(obj), stH: stH, valH: parentH[obj]}]; hit {
				return st.install(parent, parentFP, parentH, pid, obj, &tv, dst, dstH), true, nil
			}
		}
	}

	s := parent.States[pid]
	if !havePoised {
		if pe, err = st.poisedOf(pid, s); err != nil {
			return 0, false, err
		}
		if st.poised != nil {
			st.poised[poisedKey{pid: int32(pid), stH: stH}] = pe
		}
	}
	if pe.decided {
		return 0, false, nil
	}
	obj := pe.op.Object
	tv, err := st.transition(pid, pe.op, parent.Objects[obj], s)
	if err != nil {
		return 0, false, err
	}
	if st.trans != nil {
		st.trans[transKey{pid: int32(pid), obj: int32(obj), stH: stH, valH: parentH[obj]}] = tv.transVal
	}
	return st.install(parent, parentFP, parentH, pid, obj, &tv.transVal, dst, dstH), true, nil
}

// ApplyKeyed is the step of exact-key runs (NewStepperExact steppers
// only): ApplyCOW, memoized on exact encodings, which also appends the
// successor's exact key — byte for byte its Config.AppendEncoding — to
// key and returns the extended slice. penc must hold parent's own exact
// encoding: the actor's state span and the targeted object's value span
// are the memo keys, so a hit skips Poised, Type.Apply, Observe and both
// interns, and the successor's key is penc's with the two touched spans
// replaced, so no slot is re-encoded either. On !ok or an error key comes
// back unextended.
func (st *Stepper) ApplyKeyed(parent *Config, parentFP uint64, parentH []uint64, penc *SlotEncoding, pid int, dst *Config, dstH []uint64, key []byte) (fp uint64, succKey []byte, ok bool, err error) {
	stateSlot := len(st.specs) + pid
	mk := append(st.mkey[:0], byte(pid), byte(pid>>8), byte(pid>>16), byte(pid>>24))
	mk = append(mk, penc.spans[stateSlot]...)
	st.mkey = mk
	pe, hit := st.exPoised[string(mk)]
	if !hit {
		if pe, err = st.poisedOf(pid, parent.States[pid]); err != nil {
			return 0, key, false, err
		}
		st.exPoised[string(mk)] = pe
	}
	if pe.decided {
		return 0, key, false, nil
	}
	// Both encodings are self-delimiting, so the concatenation names the
	// (state, value) pair uniquely.
	obj := pe.op.Object
	mk = append(mk, penc.spans[obj]...)
	st.mkey = mk
	tv, hit := st.exTrans[string(mk)]
	if !hit {
		if tv, err = st.transition(pid, pe.op, parent.Objects[obj], parent.States[pid]); err != nil {
			return 0, key, false, err
		}
		st.exTrans[string(mk)] = tv
	}
	fp = st.install(parent, parentFP, parentH, pid, obj, &tv.transVal, dst, dstH)
	a := st.arena
	key = penc.splice(key, obj, a.encoding(a.vals[tv.valRef]), stateSlot, a.encoding(a.sts[tv.stRef]))
	return fp, key, true, nil
}
