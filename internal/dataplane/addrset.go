package dataplane

import (
	"cmp"
	"math/bits"
	"slices"
)

// addrSet is a set of group addresses: one flat array of packed
// VNI<<32|Group keys, open-addressed with linear probing. A lookup is a
// multiply, a shift and (almost always) one load from the array, where a
// Go map costs about four dependent cache misses when every one of a
// fabric's hypervisors owns a separate map (DESIGN.md § "Receive
// filter"). The zero value is an empty set. Not safe for concurrent use:
// the owner's lock covers it.
//
// Slot value 0 means empty, so the zero address (VNI 0, group 0) is kept
// in a flag instead of a slot. remove shifts the rest of its probe run
// back instead of leaving a tombstone, so a set that members join and
// leave forever holds exactly what a freshly built one would.
type addrSet struct {
	slots   []uint64 // len 0 or a power of two, at most 3/4 full
	n       int      // keys in slots (the zero address not counted)
	shift   uint8    // 64 - log2(len(slots))
	hasZero bool
}

// addrSetMinSlots is the first allocation: 8 slots are one cache line.
const addrSetMinSlots = 8

func packAddr(a GroupAddr) uint64 { return uint64(a.VNI)<<32 | uint64(a.Group) }

// home is k's preferred slot: Fibonacci hashing, top bits of the
// product, so tenants' dense group numbers spread over the table.
func (s *addrSet) home(k uint64) int { return int(k * 0x9E3779B97F4A7C15 >> s.shift) }

func (s *addrSet) has(a GroupAddr) bool {
	k := packAddr(a)
	if k == 0 {
		return s.hasZero
	}
	if len(s.slots) == 0 {
		return false
	}
	mask := len(s.slots) - 1
	for i := s.home(k); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return true
		case 0:
			return false
		}
	}
}

func (s *addrSet) add(a GroupAddr) {
	k := packAddr(a)
	if k == 0 {
		s.hasZero = true
		return
	}
	if s.has(a) {
		return
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	s.place(k)
	s.n++
}

// place stores a key known to be absent in the first free slot of its
// probe run.
func (s *addrSet) place(k uint64) {
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = k
}

func (s *addrSet) grow() {
	old := s.slots
	size := max(addrSetMinSlots, 2*len(old))
	s.slots = make([]uint64, size)
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, k := range old {
		if k != 0 {
			s.place(k)
		}
	}
}

func (s *addrSet) remove(a GroupAddr) {
	k := packAddr(a)
	if k == 0 {
		s.hasZero = false
		return
	}
	if len(s.slots) == 0 {
		return
	}
	mask := len(s.slots) - 1
	i := s.home(k)
	for s.slots[i] != k {
		if s.slots[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	s.n--
	// Close the hole: walk the rest of the run and move back every key
	// whose home is not (cyclically) after the hole and up to its own
	// slot — such a key's probe would otherwise stop at the hole.
	for j := (i + 1) & mask; s.slots[j] != 0; j = (j + 1) & mask {
		if h := s.home(s.slots[j]); (j-h)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = 0
}

// compareAddrs orders group addresses by (VNI, Group), which is the
// order of their packed keys.
func compareAddrs(a, b GroupAddr) int { return cmp.Compare(packAddr(a), packAddr(b)) }

// sorted returns the set's addresses in (VNI, Group) order.
func (s *addrSet) sorted() []GroupAddr {
	addrs := make([]GroupAddr, 0, s.n+1)
	if s.hasZero {
		addrs = append(addrs, GroupAddr{})
	}
	for _, k := range s.slots {
		if k != 0 {
			addrs = append(addrs, GroupAddr{VNI: uint32(k >> 32), Group: uint32(k)})
		}
	}
	slices.SortFunc(addrs, compareAddrs)
	return addrs
}
