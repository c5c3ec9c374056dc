package model

import "sync"

// This file implements a compact binary encoding of configurations and
// values, and the 64-bit FNV-1a hash (fnv1a) that hashEncoding runs over a
// slot's encoding for the slot fingerprints of stepper.go. The string
// Key() encoding remains the canonical, human-readable identity.

// Encoding tags. Every encoded value starts with one tag byte so that the
// encoding is prefix-free across types ("3" the Int never aliases "3" the
// state key).
const (
	encNilIface  = 0x00 // untyped nil Value or State
	encNilValue  = 0x01 // model.Nil (⊥)
	encInt       = 0x02 // model.Int, zigzag varint
	encPair      = 0x03 // model.Pair, First then Second
	encVec       = 0x04 // model.Vec, length then components
	encOpaque    = 0x05 // any other Value/State, length-prefixed Key() bytes
	encObjsDone  = 0x06 // separator between objects and states
	encStateDone = 0x07 // separator after each state
)

// appendUvarint appends x in base-128 varint form.
func appendUvarint(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}

// appendVarint appends a signed integer with zigzag encoding.
func appendVarint(buf []byte, x int64) []byte {
	return appendUvarint(buf, uint64(x)<<1^uint64(x>>63))
}

// appendValue appends the compact encoding of v. Int, Nil, Pair and Vec —
// the value types every built-in object stores — get binary fast paths;
// anything else is encoded via its canonical Key bytes.
func appendValue(buf []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, encNilIface)
	case Nil:
		return append(buf, encNilValue)
	case Int:
		return appendVarint(append(buf, encInt), int64(x))
	case Pair:
		buf = appendValue(append(buf, encPair), x.First)
		return appendValue(buf, x.Second)
	case Vec:
		buf = appendUvarint(append(buf, encVec), uint64(len(x)))
		for _, c := range x {
			buf = appendVarint(buf, int64(c))
		}
		return buf
	default:
		return appendKeyBytes(append(buf, encOpaque), v)
	}
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// keyScratchPool holds scratch buffers for length-prefixing AppendKey
// output without allocating a key string first.
var keyScratchPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// appendKeyBytes appends the length-prefixed canonical key of v (a Value
// or State), using the KeyAppender fast path when available.
func appendKeyBytes[T interface{ Key() string }](buf []byte, v T) []byte {
	if ka, ok := any(v).(KeyAppender); ok {
		tp := keyScratchPool.Get().(*[]byte)
		tmp := ka.AppendKey((*tp)[:0])
		buf = appendUvarint(buf, uint64(len(tmp)))
		buf = append(buf, tmp...)
		*tp = tmp
		keyScratchPool.Put(tp)
		return buf
	}
	return appendString(buf, v.Key())
}

// appendState appends the encoding of one process state. States are
// protocol-defined and expose only their canonical Key, so they are
// encoded as length-prefixed key bytes.
func appendState(buf []byte, s State) []byte {
	if s == nil {
		return append(buf, encNilIface)
	}
	return appendKeyBytes(append(buf, encOpaque), s)
}

// AppendEncoding appends the compact binary encoding of c to buf and
// returns the extended slice. Two configurations have equal encodings
// exactly when they have equal Keys. Callers reuse buf across calls to
// amortize allocation (pass buf[:0]).
func (c *Config) AppendEncoding(buf []byte) []byte {
	for _, v := range c.Objects {
		buf = appendValue(buf, v)
	}
	buf = append(buf, encObjsDone)
	for _, s := range c.States {
		buf = appendState(buf, s)
		buf = append(buf, encStateDone)
	}
	return buf
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}
