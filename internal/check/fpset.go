package check

// fpSet is an open-addressing (linear-probing) hash set of 64-bit
// fingerprints — the visited-set table. It is not safe for concurrent use;
// the engine probes it only under the run's claim lock (held once per
// chunk of candidates, not per probe), or from the one worker a run or
// level has.
//
// The fingerprints one table holds can share bits (a distributed peer owns
// a range of the top six), so probe starts are not cut from the
// fingerprint as it is: probeStart remixes multiplicatively and takes the
// high bits of the product (Fibonacci hashing).
// The zero fingerprint is representable: it is tracked out of band so 0
// can stay the empty-slot sentinel.
type fpSet struct {
	slots   []uint64
	mask    uint64
	shift   uint // 64 - log2(len(slots)), for probeStart
	n       int
	hasZero bool
}

// newFpSet returns a set pre-sized for about capHint elements.
func newFpSet(capHint int) *fpSet {
	size := 1024
	for size < capHint*2 {
		size <<= 1
	}
	s := &fpSet{}
	s.setSlots(make([]uint64, size))
	return s
}

func (s *fpSet) setSlots(slots []uint64) {
	s.slots = slots
	s.mask = uint64(len(slots) - 1)
	s.shift = 64
	for size := len(slots); size > 1; size >>= 1 {
		s.shift--
	}
}

func (s *fpSet) probeStart(fp uint64) uint64 {
	return (fp * 0x9E3779B97F4A7C15) >> s.shift
}

// Len returns the number of fingerprints in the set.
func (s *fpSet) Len() int {
	if s.hasZero {
		return s.n + 1
	}
	return s.n
}

// Has reports membership.
func (s *fpSet) Has(fp uint64) bool {
	if fp == 0 {
		return s.hasZero
	}
	for i := s.probeStart(fp); ; i = (i + 1) & s.mask {
		switch s.slots[i] {
		case fp:
			return true
		case 0:
			return false
		}
	}
}

// Add inserts fp and reports whether it was absent (true = newly added).
func (s *fpSet) Add(fp uint64) bool {
	if fp == 0 {
		added := !s.hasZero
		s.hasZero = true
		return added
	}
	for i := s.probeStart(fp); ; i = (i + 1) & s.mask {
		switch s.slots[i] {
		case fp:
			return false
		case 0:
			s.slots[i] = fp
			s.n++
			// Grow at 70% load so probe chains stay short.
			if uint64(s.n)*10 > uint64(len(s.slots))*7 {
				s.resize(len(s.slots) * 2)
			}
			return true
		}
	}
}

// reserve sizes the table so that n more fingerprints fit under the growth
// bound, rehashing at most once; a bulk load that reserves first never
// grows. That is what keeps a table-order stream (forEach) linear to
// load: such a stream is sorted by probe start, so fed to a
// table still doubling up from small it lands every entry at the end of
// one contiguous cluster — quadratic, 33.8 s for a million entries —
// whereas in a table already at its final size each entry probes exactly
// as far as it did in the table it was dumped from.
func (s *fpSet) reserve(n int) {
	size := len(s.slots)
	for uint64(s.n+n)*10 > uint64(size)*7 {
		size <<= 1
	}
	if size > len(s.slots) {
		s.resize(size)
	}
}

// forEach calls fn on every member in table order — sorted by probe
// start — without materializing the members, and stops at fn's first
// error. Load such a stream only into a reserved table (see reserve).
func (s *fpSet) forEach(fn func(fp uint64) error) error {
	if s.hasZero {
		if err := fn(0); err != nil {
			return err
		}
	}
	for _, fp := range s.slots {
		if fp != 0 {
			if err := fn(fp); err != nil {
				return err
			}
		}
	}
	return nil
}

// resize rehashes the set into a table of size slots.
func (s *fpSet) resize(size int) {
	old := s.slots
	s.setSlots(make([]uint64, size))
	for _, fp := range old {
		if fp == 0 {
			continue
		}
		for i := s.probeStart(fp); ; i = (i + 1) & s.mask {
			if s.slots[i] == 0 {
				s.slots[i] = fp
				break
			}
		}
	}
}
