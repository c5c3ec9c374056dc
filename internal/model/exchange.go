package model

import (
	"bytes"
	"sync"
)

// SlotExchange interns slots <-> canonical Values/States by content hash.
// States (and opaque Values) are protocol-defined and cannot be rebuilt
// from bytes, so every subsystem that rematerialises configurations from
// node records — the disk-spilling state store reloading spooled frontier
// segments, and the distributed-frontier peers decoding successor batches
// off the wire — registers each slot's canonical object here first and
// resolves the slot-hash vector a record carries back through it. A
// decoder that misses (a slot first seen on another process) falls back
// to replaying the node's pid path and then interns the result, so the
// exchange warms up to the hot slot population.
//
// Each content hash maps to a chain of (encoding, canonical object),
// matched the way the stepper memo matches its entries. A fingerprint-
// keyed run interns and resolves with no encodings, so a slot is its
// content hash — the trust NewStepper's memo already places in (pid,
// content hash). An exact-key run passes every slot's encoding and a match
// must equal it byte for byte, like NewStepperExact's, so a degenerate
// hash can never substitute one slot for another. Read-mostly after
// warmup; safe for concurrent use.
type SlotExchange struct {
	mu   sync.RWMutex
	vals slotChains[Value]
	sts  slotChains[State]
}

// slotChains maps a content hash to the slots interned under it.
type slotChains[T any] map[uint64][]slotEntry[T]

type slotEntry[T any] struct {
	enc string // the slot's encoding; empty in fingerprint-keyed runs
	obj T
}

func (c slotChains[T]) find(h uint64, enc []byte) (T, bool) {
	for _, e := range c[h] {
		if e.enc == string(enc) {
			return e.obj, true
		}
	}
	var zero T
	return zero, false
}

func (c slotChains[T]) add(h uint64, enc []byte, obj T) {
	if _, ok := c.find(h, enc); !ok {
		c[h] = append(c[h], slotEntry[T]{string(enc), obj})
	}
}

// NewSlotExchange returns an empty exchange.
func NewSlotExchange() *SlotExchange {
	return &SlotExchange{vals: slotChains[Value]{}, sts: slotChains[State]{}}
}

// spanAt is slot i's encoding, or nil when the caller matches on hashes
// alone (spans nil).
func spanAt(spans [][]byte, i int) []byte {
	if spans == nil {
		return nil
	}
	return spans[i]
}

// SlotCache remembers, per slot index, the last few slots one sequential
// caller interned or resolved: their hashes, under exact keys their
// encodings, and on the resolving side their canonical objects.
// Consecutive configurations of a frontier are mostly siblings and
// cousins, which share all but a slot or two and draw those from a few
// values, so Intern and Resolve given a cache look up in the exchange
// only the slots it does not hold: on Table 1's row 3 (1M states
// spilled, one worker) about one slot in nine, where remembering only
// the last vector leaves more than half. Where there are encodings a
// slot is held only if its encoding is byte-equal too, never on a hash
// match alone. A cache serves one side, interning or resolving, and one
// caller at a time; the zero value is empty, and a nil *SlotCache is no
// cache at all.
type SlotCache struct {
	nObj  int
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
	enc   []byte // a copy: the caller's spans do not outlive its call
	val   Value  // resolving side only
	st    State
}

// fit sizes c for configurations of nObj objects and nSlots slots,
// forgetting what it held if their shape changed.
func (c *SlotCache) fit(nObj, nSlots int) {
	if c != nil && (c.nObj != nObj || len(c.lines) != nSlots*slotCacheWays) {
		*c = SlotCache{nObj: nObj, lines: make([]slotLine, nSlots*slotCacheWays)}
	}
}

// line is where slot i's content h is remembered, if anywhere.
func (c *SlotCache) line(i int, h uint64) *slotLine {
	return &c.lines[i*slotCacheWays+int((h*0x9E3779B97F4A7C15)>>(64-slotCacheBits))]
}

// holds returns the line remembering slot i as h with encoding enc (nil:
// the caller matches on hashes alone), or nil.
func (c *SlotCache) holds(i int, h uint64, enc []byte) *slotLine {
	if c == nil {
		return nil
	}
	if l := c.line(i, h); l.known && l.h == h && (enc == nil || bytes.Equal(l.enc, enc)) {
		return l
	}
	return nil
}

// record remembers (h, enc) as a content of slot i and returns its line.
func (c *SlotCache) record(i int, h uint64, enc []byte) *slotLine {
	if c == nil {
		return nil
	}
	l := c.line(i, h)
	l.known, l.h, l.enc = true, h, append(l.enc[:0], enc...)
	return l
}

// Intern registers every slot of c that the exchange has not seen yet.
// slotH is c's slot-hash vector (objects, then states); spans is nil in a
// fingerprint-keyed run, else the slots' encodings (a SlotSpans split of
// c's exact key). Slots the cache holds were interned by an earlier call
// and are skipped; the cache then holds c's.
func (e *SlotExchange) Intern(c *Config, slotH []uint64, spans [][]byte, cache *SlotCache) {
	nObj := len(c.Objects)
	cache.fit(nObj, len(slotH))
	locked, missing := false, false
	for i, h := range slotH {
		enc := spanAt(spans, i)
		if cache.holds(i, h, enc) != nil {
			continue
		}
		if !locked {
			e.mu.RLock()
			locked = true
		}
		var ok bool
		if i < nObj {
			_, ok = e.vals.find(h, enc)
		} else {
			_, ok = e.sts.find(h, enc)
		}
		if !ok {
			missing = true
			break
		}
		cache.record(i, h, enc)
	}
	if locked {
		e.mu.RUnlock()
	}
	if !missing {
		return
	}
	e.mu.Lock()
	for i, h := range slotH {
		enc := spanAt(spans, i)
		if cache.holds(i, h, enc) != nil {
			continue
		}
		if i < nObj {
			e.vals.add(h, enc, c.Objects[i])
		} else {
			e.sts.add(h, enc, c.States[i-nObj])
		}
		cache.record(i, h, enc)
	}
	e.mu.Unlock()
}

// Resolve fills c's slots with the canonical objects interned under
// slotH (and, where spans is non-nil, under those encodings), objects
// first, and returns the first slot the exchange has never interned, or
// -1 when every slot resolved. The missed slot is cleared and those past
// it are not filled. Slots the cache holds take the objects they resolved
// to before, without a lookup; the cache then holds c's resolved slots.
func (e *SlotExchange) Resolve(c *Config, slotH []uint64, spans [][]byte, cache *SlotCache) int {
	nObj := len(c.Objects)
	cache.fit(nObj, len(slotH))
	locked := false
	defer func() {
		if locked {
			e.mu.RUnlock()
		}
	}()
	for i, h := range slotH {
		enc := spanAt(spans, i)
		if l := cache.holds(i, h, enc); l != nil {
			if i < nObj {
				c.Objects[i] = l.val
			} else {
				c.States[i-nObj] = l.st
			}
			continue
		}
		if !locked {
			e.mu.RLock()
			locked = true
		}
		var ok bool
		if i < nObj {
			c.Objects[i], ok = e.vals.find(h, enc)
		} else {
			c.States[i-nObj], ok = e.sts.find(h, enc)
		}
		if !ok {
			return i
		}
		if l := cache.record(i, h, enc); l != nil {
			if i < nObj {
				l.val = c.Objects[i]
			} else {
				l.st = c.States[i-nObj]
			}
		}
	}
	return -1
}
