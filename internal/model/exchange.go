package model

import "sync"

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

// Intern registers every slot of c that the exchange has not seen yet.
// slotH is c's slot-hash vector (objects, then states); spans is nil in a
// fingerprint-keyed run, else the slots' encodings (a SlotSpans split of
// c's exact key).
func (e *SlotExchange) Intern(c *Config, slotH []uint64, spans [][]byte) {
	nObj := len(c.Objects)
	e.mu.RLock()
	missing := false
	for i, h := range slotH {
		var ok bool
		if i < nObj {
			_, ok = e.vals.find(h, spanAt(spans, i))
		} else {
			_, ok = e.sts.find(h, spanAt(spans, i))
		}
		if !ok {
			missing = true
			break
		}
	}
	e.mu.RUnlock()
	if !missing {
		return
	}
	e.mu.Lock()
	for i, h := range slotH {
		if i < nObj {
			e.vals.add(h, spanAt(spans, i), c.Objects[i])
		} else {
			e.sts.add(h, spanAt(spans, i), c.States[i-nObj])
		}
	}
	e.mu.Unlock()
}

// Resolve fills c's slots with the canonical objects interned under
// slotH (and, where spans is non-nil, under those encodings), objects
// first, and returns the first slot the exchange has never interned, or
// -1 when every slot resolved. The missed slot is cleared and those past
// it are not filled.
func (e *SlotExchange) Resolve(c *Config, slotH []uint64, spans [][]byte) int {
	nObj := len(c.Objects)
	e.mu.RLock()
	defer e.mu.RUnlock()
	for i, h := range slotH {
		var ok bool
		if i < nObj {
			c.Objects[i], ok = e.vals.find(h, spanAt(spans, i))
		} else {
			c.States[i-nObj], ok = e.sts.find(h, spanAt(spans, i))
		}
		if !ok {
			return i
		}
	}
	return -1
}
