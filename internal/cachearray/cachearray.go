// Package cachearray implements the cache array organizations of the
// paper's cache model (§III-A): the array "implements associative lookups
// and provides a list of replacement candidates on each eviction".
//
// Four organizations are provided:
//
//   - SetAssoc: conventional set-associative array with H3 indexing. Table
//     II's L2 is 16-way set-associative with hashed indexing; an H3 index
//     keeps the aligned synthetic address spaces from resonating with the
//     set count. One way is the direct-mapped array (R=1).
//   - ZCache: a zcache with replacement-candidate walks and line relocation.
//     A one-level walk is the skew-associative array: one hash function per
//     way, one candidate per way, no relocation.
//   - Random: the analytical "random candidates cache" satisfying the
//     Uniformity Assumption (§IV-A) — R candidates drawn independently and
//     uniformly over all lines.
//   - FullyAssoc: every line is a candidate (used by the FullAssoc ideal
//     partitioning scheme).
//
// Arrays store only addresses; partition membership, futility state and
// statistics live in the controller (internal/core), keyed by line index.
// Because a zcache relocates lines, Install reports Moves that the
// controller must replay onto its per-line metadata.
package cachearray

import (
	"fmt"

	"fscache/internal/hashing"
	"fscache/internal/stats"
	"fscache/internal/xrand"
)

// Move records that the content of line From was relocated to line To
// during an Install (zcache only). Metadata keyed by line index must follow.
type Move struct {
	From, To int
}

// Array is the cache-array contract used by the controller.
//
// The calling protocol on a miss for address a is:
//
//	cands := arr.Candidates(a, cands[:0])  // inspect, pick victim v ∈ cands
//	moves := arr.Install(a, v, moves[:0])  // a now resides somewhere findable
//
// Candidates and Install append into caller-owned slices and return the
// extended slice (append idiom), so a controller reusing its buffers drives
// the whole miss path without allocating. Install must be passed a line from
// the most recent Candidates(a) result.
type Array interface {
	// Lines returns the total number of cache lines.
	Lines() int
	// Lookup returns the line index currently holding addr, or -1.
	//fs:allocfree
	Lookup(addr uint64) int
	// Candidates appends the replacement-candidate line indices for addr to
	// dst and returns the extended slice. The append target is the
	// caller's reused buffer; implementations must not allocate beyond
	// growing it.
	//fs:allocfree
	Candidates(addr uint64, dst []int) []int
	// AddrOf returns the address stored in line and whether it is valid.
	//fs:allocfree
	AddrOf(line int) (addr uint64, valid bool)
	// Install stores addr in victim (evicting its content), appends any
	// relocations performed to moves and returns the extended slice. The
	// controller does not look addr up again: it lands in victim when no
	// relocation is appended, and otherwise in the From line of the last one
	// (the root a zcache walk vacated).
	//fs:allocfree
	Install(addr uint64, victim int, moves []Move) []Move
}

// Freer is implemented by arrays that can hand out a free (invalid) line in
// O(1) without a candidate scan.
type Freer interface {
	// FreeLine returns an installable free line for addr, or -1.
	//fs:allocfree
	FreeLine(addr uint64) int
}

// lineBits is one bit per line: an array's valid flags.
type lineBits []uint64

func newLineBits(lines int) lineBits { return make(lineBits, (lines+63)/64) }

//fs:allocfree
func (b lineBits) get(line int) bool { return b[line>>6]>>(uint(line)&63)&1 != 0 }

//fs:allocfree
func (b lineBits) set(line int) { b[line>>6] |= 1 << (uint(line) & 63) }

func checkPow2(n int, what string) {
	if n <= 0 || n&(n-1) != 0 {
		panicf("%s must be a positive power of two, got %d", what, n)
	}
}

// IndexKind selects the set-index hash for SetAssoc arrays. IndexH3 is the
// only one.
type IndexKind int

// IndexH3 indexes sets with one H3 universal hash function.
const IndexH3 IndexKind = 1

// SetAssoc is a conventional set-associative array.
type SetAssoc struct {
	ways  int
	sets  int
	addrs []uint64
	valid lineBits
	h3    *hashing.H3

	// lastAddr and lastSet memoize set for the address indexed last, so
	// that Candidates and Install reuse Lookup's hash. The zero value is
	// right: H3 maps address 0 to set 0 (it is linear).
	lastAddr uint64
	lastSet  int
}

// NewSetAssoc builds an array of lines = sets×ways lines. lines and ways
// must be powers of two with ways ≤ lines, and kind IndexH3.
func NewSetAssoc(lines, ways int, kind IndexKind, seed uint64) *SetAssoc {
	if kind != IndexH3 {
		panicf("unknown index kind %d", kind)
	}
	a := newSetAssoc(lines, ways)
	a.h3 = hashing.NewH3(seed, a.sets)
	return a
}

// NewSetAssocH3 builds an array that indexes with h instead of a
// function of its own: an address's set is the low log2(lines/ways) bits of
// h.Hash(addr), so h must map onto at least lines/ways buckets. An H3 onto
// more buckets agrees in those bits with the one NewSetAssoc would build from
// its seed, so arrays sharing h are the banks of one larger array, each told
// apart by the bits above its own (internal/shardcache).
func NewSetAssocH3(lines, ways int, h *hashing.H3) *SetAssoc {
	a := newSetAssoc(lines, ways)
	a.h3 = h
	return a
}

func newSetAssoc(lines, ways int) *SetAssoc {
	checkPow2(lines, "lines")
	checkPow2(ways, "ways")
	if ways > lines {
		panic("cachearray: ways exceed lines")
	}
	sets := lines / ways
	return &SetAssoc{
		ways:  ways,
		sets:  sets,
		addrs: make([]uint64, lines),
		valid: newLineBits(lines),
	}
}

// Lines implements Array.
func (a *SetAssoc) Lines() int { return a.sets * a.ways }

// set returns addr's set, hashing only when addr is not the address indexed
// last.
func (a *SetAssoc) set(addr uint64) int {
	if addr != a.lastAddr {
		a.lastAddr, a.lastSet = addr, a.index(addr)
	}
	return a.lastSet
}

// Hashed hands a the hash of addr under its H3 — the function shared with
// NewSetAssocH3, which a router has already evaluated to pick the bank — so
// that the next set lookups of addr take its set from hash instead of
// hashing again.
//
//fs:allocfree
func (a *SetAssoc) Hashed(addr, hash uint64) {
	a.lastAddr, a.lastSet = addr, int(hash)&(a.sets-1)
}

func (a *SetAssoc) index(addr uint64) int {
	stats.CountH3()
	return int(a.h3.Hash(addr)) & (a.sets - 1) // a no-op unless h3 is shared
}

// Lookup implements Array.
//
//fs:allocfree
func (a *SetAssoc) Lookup(addr uint64) int {
	base := a.set(addr) * a.ways
	for w := 0; w < a.ways; w++ {
		i := base + w
		if a.addrs[i] == addr && a.valid.get(i) {
			return i
		}
	}
	return -1
}

// Candidates implements Array: the ways of addr's set.
//
//fs:allocfree
func (a *SetAssoc) Candidates(addr uint64, dst []int) []int {
	base := a.set(addr) * a.ways
	for w := 0; w < a.ways; w++ {
		dst = append(dst, base+w)
	}
	return dst
}

// AddrOf implements Array.
//
//fs:allocfree
func (a *SetAssoc) AddrOf(line int) (uint64, bool) {
	return a.addrs[line], a.valid.get(line)
}

// Install implements Array.
//
//fs:allocfree
func (a *SetAssoc) Install(addr uint64, victim int, moves []Move) []Move {
	if victim/a.ways != a.set(addr) {
		panic("cachearray: victim outside address's set")
	}
	a.addrs[victim] = addr
	a.valid.set(victim)
	return moves
}

// lineStore is the map-indexed line storage of the arrays that place an
// address in any line (Random, FullyAssoc): each embeds it and supplies only
// its own Candidates.
type lineStore struct {
	addrs []uint64
	valid lineBits
	index map[uint64]int
	free  []int // free lines, popped from the end: 0, 1, 2, …
}

func newLineStore(lines int) lineStore {
	if lines <= 0 {
		panic("cachearray: lines must be positive")
	}
	s := lineStore{
		addrs: make([]uint64, lines),
		valid: newLineBits(lines),
		index: make(map[uint64]int, lines),
		free:  make([]int, lines),
	}
	for i := range s.free {
		s.free[i] = lines - 1 - i
	}
	return s
}

// Lines implements Array.
func (s *lineStore) Lines() int { return len(s.addrs) }

// Lookup implements Array.
//
//fs:allocfree
func (s *lineStore) Lookup(addr uint64) int {
	if i, ok := s.index[addr]; ok {
		return i
	}
	return -1
}

// FreeLine implements Freer.
//
//fs:allocfree
func (s *lineStore) FreeLine(addr uint64) int {
	if len(s.free) == 0 {
		return -1
	}
	return s.free[len(s.free)-1]
}

// AddrOf implements Array.
//
//fs:allocfree
func (s *lineStore) AddrOf(line int) (uint64, bool) {
	return s.addrs[line], s.valid.get(line)
}

// Install implements Array.
//
//fs:allocfree
func (s *lineStore) Install(addr uint64, victim int, moves []Move) []Move {
	if s.valid.get(victim) {
		delete(s.index, s.addrs[victim])
	} else {
		// Victim was a free line handed out by FreeLine; remove it from the
		// freelist (it is always the top when obtained via FreeLine).
		for i := len(s.free) - 1; i >= 0; i-- {
			if s.free[i] == victim {
				s.free = append(s.free[:i], s.free[i+1:]...)
				break
			}
		}
	}
	s.addrs[victim] = addr
	s.valid.set(victim)
	s.index[addr] = victim
	return moves
}

// Random is the analytical cache of §IV: R candidates drawn independently
// and uniformly over all lines on every eviction, which realizes the
// Uniformity Assumption exactly. Lookup uses an address map (this array
// abstracts away placement constraints entirely).
type Random struct {
	lineStore
	r   int
	rng *xrand.Rand
}

// NewRandom builds a random-candidates array with r candidates per eviction.
func NewRandom(lines, r int, seed uint64) *Random {
	s := newLineStore(lines)
	if r <= 0 || r > lines {
		panic("cachearray: candidate count out of range")
	}
	return &Random{lineStore: s, r: r, rng: xrand.New(seed)}
}

// Candidates implements Array: r distinct uniform lines.
//
//fs:allocfree
func (a *Random) Candidates(addr uint64, dst []int) []int {
	start := len(dst)
	for len(dst)-start < a.r {
		c := a.rng.Intn(len(a.addrs))
		dup := false
		for _, b := range dst[start:] {
			if b == c {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, c)
		}
	}
	return dst
}

// FullyAssoc is the idealized array in which every line is a replacement
// candidate. Controllers recognise the concrete type and use scheme fast
// paths (see core) instead of scanning the full candidate list: it is a
// Freer, so once FreeLine returns -1 every line is valid and the list need
// not be asked for at all.
type FullyAssoc struct {
	lineStore
}

// NewFullyAssoc builds a fully-associative array.
func NewFullyAssoc(lines int) *FullyAssoc {
	return &FullyAssoc{newLineStore(lines)}
}

// Candidates implements Array: every line. Controllers should prefer a
// fast path to copying the full list.
//
//fs:allocfree
func (a *FullyAssoc) Candidates(addr uint64, dst []int) []int {
	for i := range a.addrs {
		dst = append(dst, i)
	}
	return dst
}

// panicf formats a cold-path panic message out of line, keeping fmt calls
// (and their escaping arguments) out of the callers' bodies — fslint's
// allocfree rejects an inline panic(fmt.Sprintf(...)) on an //fs:allocfree path.
//
//go:noinline
func panicf(format string, args ...any) {
	panic("cachearray: " + fmt.Sprintf(format, args...))
}
