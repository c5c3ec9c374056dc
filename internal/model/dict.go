package model

import (
	"math/bits"
	"strings"
	"sync"
)

// Dict is a run's slot dictionary: every object value and process state
// the run meets, interned once by its compact encoding. Each entry holds
// the encoding, its content hash (the slot hash) and the canonical Value
// or State it stands for, under a dense ref — values and states have a ref
// space each, and a configuration is a ref vector, objects first, then
// states, in slot order. The frontier engine keeps one Dict per run, its
// nodes hold pointer-free ref vectors, and every worker's Stepper interns
// into it and reads from it.
//
//   - Interning takes a mutex and always matches bytes: one ref per
//     encoding, whatever the hashes do (degenerate hashes included). It
//     happens only when a stepper meets a transition it has not memoised,
//     at a run's root and when a caller hands in a whole Config.
//
//   - Reading an entry by ref takes no lock. Entries live in chunks that
//     are allocated once and never move (chunk k holds 64<<k entries), and
//     a ref reaches a reader only after the entry was written — through
//     the intern that returned it, or through whatever handed the ref on.
//
//   - A content hash resolves to a ref through the hash index, under the
//     same mutex (Resolve): how a node record, which carries slot hashes,
//     finds its slots again. The first entry of the hash is taken, the
//     trust a fingerprint-keyed run places in a slot hash.
//
//   - A state entry also holds its decision (a value or none), computed
//     once, when the entry gets its canonical object: a classifier that
//     reads only decisions reads them by ref (Decision), with no
//     configuration materialised.
//
//   - An encoding can be interned without its object (InternEncodings):
//     how a resumed exact-key run turns its checkpoint's encoded keys into
//     refs. Such an entry has its encoding and hash but no canonical
//     object until the first InternValue or InternState of that encoding
//     attaches one, and its decision with it; only its encoding and hash
//     may be read before then.
//
// Refs are assigned in the order interns happen, which across workers is
// timing: nothing may be ordered by a ref's value. Hashes are content
// hashes, equal for equal encodings in every dictionary and process. Within
// one dictionary, equal ref vectors are equal configurations, and the
// order of two configurations' encodings is decided by their first slot
// whose refs differ (CompareSlot).
type Dict struct {
	nObj int
	mu   sync.Mutex
	vals dictPool[Value]
	sts  dictPool[State]
	enc  []byte // encoding scratch, under mu
}

// Chunk k of a pool holds dictFirst<<k entries, so a small search
// allocates small chunks and dictChunks of them cover every uint32 ref.
const (
	dictFirstBits = 6
	dictFirst     = 1 << dictFirstBits
	dictChunks    = 33 - dictFirstBits
)

type dictPool[T any] struct {
	chunks [dictChunks][]dictEntry[T]
	n      int
	idx    map[uint64][]uint32 // content hash -> refs, in intern order
	// decide is the decision of an object, computed when an entry gets
	// it (states only; nil for values).
	decide func(T) (int, bool)
}

type dictEntry[T any] struct {
	h   uint64
	enc string
	obj T
	dec int // obj's decision, if decided (state entries)
	// decided reports that obj has decided dec; bare marks an entry
	// interned by its encoding alone, whose obj is still to be attached
	// (InternEncodings).
	decided, bare bool
}

// NewDict returns an empty dictionary for configurations of p.
func NewDict(p Protocol) *Dict {
	return &Dict{nObj: len(p.Objects()),
		vals: dictPool[Value]{idx: map[uint64][]uint32{}},
		sts:  dictPool[State]{idx: map[uint64][]uint32{}, decide: p.Decision}}
}

// locate is the chunk and index of ref.
func locate(ref uint32) (int, uint64) {
	x := uint64(ref) + dictFirst
	k := bits.Len64(x) - 1 - dictFirstBits
	return k, x - dictFirst<<k
}

func (p *dictPool[T]) at(ref uint32) *dictEntry[T] {
	k, i := locate(ref)
	return &p.chunks[k][i]
}

// find returns the first ref interned under h whose encoding is enc (nil:
// any encoding). The caller holds the lock.
func (p *dictPool[T]) find(h uint64, enc []byte) (uint32, bool) {
	for _, ref := range p.idx[h] {
		if enc == nil || p.at(ref).enc == string(enc) {
			return ref, true
		}
	}
	return 0, false
}

// intern returns the ref of enc, adding it with obj as its canonical
// object if it is new, and attaching obj to a bare entry of enc; bare
// interns enc without an object. The caller holds the lock.
func (p *dictPool[T]) intern(enc []byte, obj T, bare bool) uint32 {
	h := hashEncoding(enc)
	if ref, ok := p.find(h, enc); ok {
		if e := p.at(ref); e.bare && !bare {
			p.attach(e, obj)
		}
		return ref
	}
	ref := uint32(p.n)
	k, i := locate(ref)
	if p.chunks[k] == nil {
		p.chunks[k] = make([]dictEntry[T], dictFirst<<k)
	}
	e := &p.chunks[k][i]
	*e = dictEntry[T]{h: h, enc: string(enc), bare: true}
	if !bare {
		p.attach(e, obj)
	}
	p.n++
	p.idx[h] = append(p.idx[h], ref)
	return ref
}

// attach gives the bare entry e its canonical object and, in a pool that
// decides, the object's decision. The caller holds the lock.
func (p *dictPool[T]) attach(e *dictEntry[T], obj T) {
	e.obj, e.bare = obj, false
	if p.decide != nil {
		e.dec, e.decided = p.decide(obj)
	}
}

// Len reports the number of interned values and states.
func (d *Dict) Len() (values, states int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.vals.n, d.sts.n
}

// InternValue returns the ref of v's encoding. The first value interned
// under an encoding becomes its canonical representative.
func (d *Dict) InternValue(v Value) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.enc = appendValue(d.enc[:0], v)
	return d.vals.intern(d.enc, v, false)
}

// InternState is InternValue for process states. States with equal Keys
// are interchangeable by the model's State contract, so canonicalizing
// them is behavior-preserving — including for fields a protocol excludes
// from its Key (e.g. core's diagnostic lap counter): such fields carry no
// behavioral content by that same contract, and an engine-produced
// configuration may hold any Key-equal representative's values for them.
func (d *Dict) InternState(s State) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.enc = appendState(d.enc[:0], s)
	return d.sts.intern(d.enc, s, false)
}

func (d *Dict) value(ref uint32) Value { return d.vals.at(ref).obj }
func (d *Dict) state(ref uint32) State { return d.sts.at(ref).obj }

// Decision is the protocol's Decision of the state ref stands for,
// computed when the entry got its object: (value, true) if decided. It
// reads no lock, like any read by ref, and must not be asked of a bare
// entry.
func (d *Dict) Decision(ref uint32) (int, bool) {
	e := d.sts.at(ref)
	return e.dec, e.decided
}

// SlotHash is the content hash of slot i (an object slot below the object
// count, a state slot above) holding ref.
func (d *Dict) SlotHash(i int, ref uint32) uint64 {
	if i < d.nObj {
		return d.vals.at(ref).h
	}
	return d.sts.at(ref).h
}

// slotEnc is the encoding of slot i holding ref.
func (d *Dict) slotEnc(i int, ref uint32) string {
	if i < d.nObj {
		return d.vals.at(ref).enc
	}
	return d.sts.at(ref).enc
}

// Intern interns every slot of c into refs (one per slot) and returns c's
// slot fingerprint (Config.SlotFingerprint).
func (d *Dict) Intern(c *Config, refs []uint32) uint64 {
	var fp uint64
	for i, v := range c.Objects {
		refs[i] = d.InternValue(v)
		fp ^= mixSlot(i, d.vals.at(refs[i]).h)
	}
	for pid, s := range c.States {
		i := d.nObj + pid
		refs[i] = d.InternState(s)
		fp ^= mixSlot(i, d.sts.at(refs[i]).h)
	}
	return fp
}

// Materialise writes the configuration refs stands for into c, whose
// slices must already have its shape: every slot gets its canonical
// object.
func (d *Dict) Materialise(refs []uint32, c *Config) {
	for i := range c.Objects {
		c.Objects[i] = d.vals.at(refs[i]).obj
	}
	for pid := range c.States {
		c.States[pid] = d.sts.at(refs[d.nObj+pid]).obj
	}
}

// AppendEncoding appends the compact encoding of the configuration refs
// stands for — byte for byte its Config.AppendEncoding — from the stored
// slot encodings, encoding nothing. Bare entries have their encodings.
func (d *Dict) AppendEncoding(buf []byte, refs []uint32) []byte {
	for _, ref := range refs[:d.nObj] {
		buf = append(buf, d.vals.at(ref).enc...)
	}
	buf = append(buf, encObjsDone)
	for _, ref := range refs[d.nObj:] {
		buf = append(append(buf, d.sts.at(ref).enc...), encStateDone)
	}
	return buf
}

// CompareSlot compares the encodings of slot i holding ref a and holding
// ref b, as bytes.Compare would. Encodings are prefix-free (every value
// starts with its tag and carries its own length), so two configurations'
// encodings compare as the encodings of the first slot whose refs differ:
// the bytes before that slot are equal, and that slot's two encodings
// differ at a byte both have. It reads no lock, like any read by ref.
func (d *Dict) CompareSlot(i int, a, b uint32) int {
	return strings.Compare(d.slotEnc(i, a), d.slotEnc(i, b))
}

// resolve returns the ref of slot i's content (h, enc); enc nil matches
// on the hash alone.
func (d *Dict) resolve(i int, h uint64, enc []byte) (uint32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < d.nObj {
		return d.vals.find(h, enc)
	}
	return d.sts.find(h, enc)
}

// Resolve fills refs with the entries of the slots whose content hashes
// are hashes and returns the first slot the dictionary has never
// interned, or -1 when every slot resolved; slots past a miss are not
// filled. Slots the cache holds are taken from it without a lookup, and
// the cache then holds these.
func (d *Dict) Resolve(refs []uint32, hashes []uint64, cache *SlotCache) int {
	cache.fit(len(hashes))
	for i, h := range hashes {
		ref, ok := d.resolveCached(i, h, nil, cache)
		if !ok {
			return i
		}
		refs[i] = ref
	}
	return -1
}

// InternEncodings fills refs with the entries whose encodings are encs
// (one per slot, SlotSpans of a configuration's encoding), byte for byte,
// interning each encoding the dictionary does not hold as a bare entry:
// its object is attached by the first InternValue or InternState of that
// encoding. Slots the cache holds are taken from it, and the cache then
// holds these.
func (d *Dict) InternEncodings(refs []uint32, encs [][]byte, cache *SlotCache) {
	cache.fit(len(encs))
	for i, enc := range encs {
		h := hashEncoding(enc)
		ref, ok := d.resolveCached(i, h, enc, cache)
		if !ok {
			d.mu.Lock()
			if i < d.nObj {
				ref = d.vals.intern(enc, nil, true)
			} else {
				ref = d.sts.intern(enc, nil, true)
			}
			d.mu.Unlock()
			*cache.line(i, h) = slotLine{known: true, h: h, ref: ref}
		}
		refs[i] = ref
	}
}

// resolveCached is resolve through cache, which must be fitted.
func (d *Dict) resolveCached(i int, h uint64, enc []byte, cache *SlotCache) (uint32, bool) {
	l := cache.line(i, h)
	if l.known && l.h == h && (enc == nil || d.slotEnc(i, l.ref) == string(enc)) {
		return l.ref, true
	}
	ref, ok := d.resolve(i, h, enc)
	if ok {
		*l = slotLine{known: true, h: h, ref: ref}
	}
	return ref, ok
}

// SlotCache remembers, per slot index, the last few slots one sequential
// caller resolved: their hashes and refs. Consecutive configurations of a
// frontier are mostly siblings and cousins, which share all but a slot or
// two and draw those from a few values, so Resolve given a cache looks up
// in the dictionary only the slots it does not hold: on Table 1's row 3
// (1M states spilled, one worker) about one slot in nine. Where there are
// encodings (InternEncodings) a slot is held only if the held ref's
// encoding is byte-equal too, never on a hash match alone. The zero value
// is empty.
type SlotCache struct {
	lines []slotLine // slotCacheWays per slot index
}

// slotCacheWays is how many slots a cache remembers per index, direct-
// mapped by hash.
const (
	slotCacheBits = 3
	slotCacheWays = 1 << slotCacheBits
)

type slotLine struct {
	known bool
	h     uint64
	ref   uint32
}

// fit sizes c for nSlots slots, forgetting what it held if that changed.
func (c *SlotCache) fit(nSlots int) {
	if len(c.lines) != nSlots*slotCacheWays {
		c.lines = make([]slotLine, nSlots*slotCacheWays)
	}
}

// line is where slot i's content h is remembered, if anywhere.
func (c *SlotCache) line(i int, h uint64) *slotLine {
	return &c.lines[i*slotCacheWays+int((h*0x9E3779B97F4A7C15)>>(64-slotCacheBits))]
}
