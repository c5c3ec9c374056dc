package model

import "fmt"

// This file is the read side of the compact binary encoding: given an
// AppendEncoding result, SlotSpans recovers the per-slot encodings without
// decoding any values. An exact-key checkpoint's visited deltas carry
// configuration encodings, and a resumed run splits each so that the slot
// dictionary (dict.go, InternEncodings) can match each slot's encoding
// byte for byte. The encoding is
// tag-prefixed and therefore self-delimiting, so splitting it is a linear
// scan that never inspects payloads beyond their lengths.

// errEncoding is the malformed-encoding diagnosis prefix.
func errEncoding(pos int, format string, args ...any) error {
	return fmt.Errorf("model: slot scan at byte %d: %s", pos, fmt.Sprintf(format, args...))
}

// skipUvarint advances past a base-128 varint starting at i.
func skipUvarint(enc []byte, i int) (int, error) {
	for ; i < len(enc); i++ {
		if enc[i] < 0x80 {
			return i + 1, nil
		}
	}
	return 0, errEncoding(i, "truncated varint")
}

// readUvarint decodes a base-128 varint starting at i.
func readUvarint(enc []byte, i int) (uint64, int, error) {
	var x uint64
	var shift uint
	for ; i < len(enc); i++ {
		b := enc[i]
		if b < 0x80 {
			return x | uint64(b)<<shift, i + 1, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0, errEncoding(i, "truncated varint")
}

// skipEncodedValue advances past one encoded Value or State starting at i.
// States use only the encNilIface and encOpaque tags, a subset of the
// value grammar, so one skipper serves both.
func skipEncodedValue(enc []byte, i int) (int, error) {
	if i >= len(enc) {
		return 0, errEncoding(i, "truncated value")
	}
	tag := enc[i]
	i++
	switch tag {
	case encNilIface, encNilValue:
		return i, nil
	case encInt:
		return skipUvarint(enc, i)
	case encPair:
		i, err := skipEncodedValue(enc, i)
		if err != nil {
			return 0, err
		}
		return skipEncodedValue(enc, i)
	case encVec:
		n, i, err := readUvarint(enc, i)
		if err != nil {
			return 0, err
		}
		for j := uint64(0); j < n; j++ {
			if i, err = skipUvarint(enc, i); err != nil {
				return 0, err
			}
		}
		return i, nil
	case encOpaque:
		n, i, err := readUvarint(enc, i)
		if err != nil {
			return 0, err
		}
		if uint64(len(enc)-i) < n {
			return 0, errEncoding(i, "opaque payload of %d bytes overruns encoding", n)
		}
		return i + int(n), nil
	default:
		return 0, errEncoding(i-1, "unknown tag %#02x", tag)
	}
}

// SlotSpans splits enc — a Config.AppendEncoding result for a
// configuration with nObj objects and nProc processes — into its per-slot
// encodings: spans[0:nObj] are the object-value encodings and
// spans[nObj:nObj+nProc] the state encodings, in slot order, each exactly
// the bytes appendValue/appendState produced for that slot (separators
// excluded). The spans alias enc; spans is reused when its capacity
// suffices (pass spans[:0] across calls to amortize allocation).
func SlotSpans(enc []byte, nObj, nProc int, spans [][]byte) ([][]byte, error) {
	spans = spans[:0]
	i := 0
	for o := 0; o < nObj; o++ {
		j, err := skipEncodedValue(enc, i)
		if err != nil {
			return nil, err
		}
		spans = append(spans, enc[i:j])
		i = j
	}
	if i >= len(enc) || enc[i] != encObjsDone {
		return nil, errEncoding(i, "missing object/state separator")
	}
	i++
	for p := 0; p < nProc; p++ {
		j, err := skipEncodedValue(enc, i)
		if err != nil {
			return nil, err
		}
		spans = append(spans, enc[i:j])
		i = j
		if i >= len(enc) || enc[i] != encStateDone {
			return nil, errEncoding(i, "missing state separator after state %d", p)
		}
		i++
	}
	if i != len(enc) {
		return nil, errEncoding(i, "%d trailing bytes", len(enc)-i)
	}
	return spans, nil
}
