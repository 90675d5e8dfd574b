package simx

import (
	"math"
	"slices"
)

// Memo geometry (see solveMemo).
const (
	memoWays      = 4       // slots per set
	memoSlots     = 1 << 14 // slots in the table
	memoArenaCap  = 1 << 16 // arena words; memoSlot.off and .n are 16 bits
	memoArenaInit = 1 << 13 // arena words allocated with the table
	memoMul       = 0x9E3779B97F4A7C15
)

// memoSlot points at one memoized solve of n flows: its packed route IDs
// start at arena[off], and its n allocations follow them.
type memoSlot struct {
	tag uint32 // high hash bits, a cheap first filter
	n   uint16 // flows in the solve; 0 marks an empty slot
	off uint16
}

// solveMemo answers a max-min solve whose flows repeat an earlier solve,
// route for route, with the earlier solve's allocations.
//
// The answer is exact. maxMinSolver.solve reads only the ordered flows' link
// lists and each link's Bandwidth and Sharing, and writes only the flows'
// allocations and its own scratch. The kernel numbers the routes it
// resolves and never changes a resolved route's links, so the ordered route
// IDs fix the link lists. Sharing is set before the first transfer, and
// Bandwidth moves only in DegradeAllLinksAt, which resets the memo at both
// edges. A multiply-xorshift hash of the IDs only picks the slot: every
// candidate is compared ID for ID before its allocations are copied, so a
// collision costs a miss, never a wrong rate.
//
// Storage is bounded: a 4-way set-associative table of slots (a hit moves
// to the front of its set, an insertion evicts the last way) points into
// one arena of packed route IDs and allocation bits. Both are allocated at
// the kernel's first memoized solve, the arena at memoArenaInit words and
// reallocated at its cap once that is full; a full arena is rewound with
// the table cleared.
//
// The kernel hands the memo the solves that repeat, the re-solves of the
// whole flow set (Kernel.reshareAll); a component it finds by walking the
// flow/link graph repeats far less often and goes straight to the solver.
type solveMemo struct {
	slots []memoSlot
	arena []uint64

	// sets and arenaCap are the geometry, resolved at first use; tests
	// shrink them to force evictions and arena clears.
	sets, arenaCap int

	hits, misses uint64
}

// solve assigns activity.allocated for every flow, bit for bit as s.solve
// would. flows must not be empty: n = 0 marks an empty slot.
func (m *solveMemo) solve(s *maxMinSolver, flows []*activity) {
	n := len(flows)
	nw := (n + 1) / 2
	if !m.reserve(nw + n) {
		s.solve(flows)
		return
	}
	// Pack two route IDs per word at the arena's tail while hashing them; a
	// miss keeps them there as the new entry's key.
	off := len(m.arena)
	entry := m.arena[off : off+nw+n]
	key := entry[:nw]
	h := uint64(n) * memoMul
	for j := range key {
		w := uint64(uint32(flows[2*j].route))
		if 2*j+1 < n {
			w |= uint64(uint32(flows[2*j+1].route)) << 32
		}
		key[j] = w
		h = (h ^ w) * memoMul
		h ^= h >> 32
	}
	tag := uint32(h >> 32)
	set := int(h&uint64(m.sets-1)) * memoWays
	ways := m.slots[set : set+memoWays : set+memoWays]
	for w, sl := range ways {
		if int(sl.n) != n || sl.tag != tag {
			continue
		}
		ids := int(sl.off)
		if !slices.Equal(m.arena[ids:ids+nw], key) {
			continue
		}
		for i, bits := range m.arena[ids+nw : ids+nw+n] {
			flows[i].allocated = math.Float64frombits(bits)
		}
		copy(ways[1:w+1], ways[:w])
		ways[0] = sl
		m.hits++
		return
	}
	s.solve(flows)
	for i, a := range flows {
		entry[nw+i] = math.Float64bits(a.allocated)
	}
	m.arena = m.arena[:off+len(entry)]
	copy(ways[1:], ways[:memoWays-1])
	ways[0] = memoSlot{tag: tag, n: uint16(n), off: uint16(off)}
	m.misses++
}

// reserve makes room for an entry of need words at the arena's tail,
// allocating the memo at its first use, and reports false for an entry
// larger than the whole arena.
func (m *solveMemo) reserve(need int) bool {
	if m.slots == nil {
		if m.sets == 0 {
			m.sets = memoSlots / memoWays
		}
		if m.arenaCap == 0 {
			m.arenaCap = memoArenaCap
		}
		m.slots = make([]memoSlot, m.sets*memoWays)
		m.arena = make([]uint64, 0, min(memoArenaInit, m.arenaCap))
	}
	if need > m.arenaCap {
		return false
	}
	if len(m.arena)+need > m.arenaCap {
		m.reset()
	}
	if len(m.arena)+need > cap(m.arena) {
		m.arena = append(make([]uint64, 0, m.arenaCap), m.arena...)
	}
	return true
}

// reset forgets every memoized solve, keeping the storage.
func (m *solveMemo) reset() {
	clear(m.slots)
	m.arena = m.arena[:0]
}
