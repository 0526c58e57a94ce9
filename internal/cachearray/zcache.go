package cachearray

import "fscache/internal/hashing"

// ZCache implements a zcache: a W-way array (one hash function per way)
// whose replacement process walks the candidate graph to obtain far more
// replacement candidates than ways. A depth-L walk yields up to
// W + W(W−1) + … + W(W−1)^(L−1) candidates (Z4/52 uses W=4, L=3).
// Evicting a candidate at depth d relocates d lines along the walk path so
// that the incoming address can be installed at one of its own W positions.
// A one-level walk (L=1) is the skew-associative array: the W positions
// alone, in way order, and never a relocation.
//
// The zcache is the origin of the paper's analytical framework [17]: with
// good H3 hashing its candidates are nearly independent and uniform, which
// is why the Uniformity Assumption is "statistically close enough in a
// practical cache" (§IV-A).
type ZCache struct {
	sets   int
	ways   int
	levels int
	fam    *hashing.Family // one member per way
	addrs  []uint64
	valid  lineBits

	// memo is fam's Sum of memoAddr, the last address hashed, so that
	// Candidates' root positions reuse Lookup's table pass. The zero value
	// is right: H3 is linear, so address 0 hashes to 0 in every way.
	memoAddr uint64
	memo     []uint64
	// A word of memo holds the sets of lanes consecutive ways, width bits
	// each, from the low bits up.
	lanes int
	width uint

	// Walk state captured by Candidates for the subsequent Install.
	walkAddr  uint64
	walkValid bool
	nodes     []walkNode
	// seen has one bit per line, set while a walk holds the line as a node
	// and all-zero between walks.
	seen []uint64
}

type walkNode struct {
	line   int
	parent int // index into nodes; -1 for the W root positions
}

// NewZCache builds a zcache of the given total lines, ways (hash functions)
// and walk depth levels ≥ 1. lines and ways must be powers of two.
func NewZCache(lines, ways, levels int, seed uint64) *ZCache {
	checkPow2(lines, "lines")
	checkPow2(ways, "ways")
	if ways < 2 {
		panic("cachearray: zcache needs at least 2 ways")
	}
	if ways > lines {
		panic("cachearray: ways exceed lines")
	}
	if levels < 1 {
		panic("cachearray: zcache needs at least 1 level")
	}
	sets := lines / ways
	fam := hashing.NewFamily(seed, ways, sets)
	return &ZCache{
		sets:   sets,
		ways:   ways,
		levels: levels,
		fam:    fam,
		memo:   make([]uint64, fam.Words()),
		lanes:  min(ways, int(64/fam.LaneBits())),
		width:  fam.LaneBits(),
		addrs:  make([]uint64, lines),
		valid:  newLineBits(lines),
		seen:   make([]uint64, (lines+63)/64),
	}
}

// MaxCandidates returns the candidate count of a full-depth walk with no
// duplicate positions: W + W(W−1) + … .
func (z *ZCache) MaxCandidates() int {
	n, level := 0, z.ways
	for l := 0; l < z.levels; l++ {
		n += level
		level *= z.ways - 1
	}
	return n
}

// Lines implements Array.
func (z *ZCache) Lines() int { return z.sets * z.ways }

// hash returns addr's packed sets, the lanes of fam's Sum: one table pass,
// or none when addr is the address hashed last.
//
//fs:allocfree
func (z *ZCache) hash(addr uint64) []uint64 {
	if addr != z.memoAddr {
		z.fam.Sum(addr, z.memo)
		z.memoAddr = addr
	}
	return z.memo
}

// Lookup implements Array. Lookups check only the W direct positions — the
// whole point of the zcache is that hits stay as cheap as a W-way cache.
//
//fs:allocfree
func (z *ZCache) Lookup(addr uint64) int {
	way, width, mask := 0, z.width&63, uint64(z.sets-1)
	for _, word := range z.hash(addr) {
		for range z.lanes {
			i := way + int(word&mask)
			if z.addrs[i] == addr && z.valid.get(i) {
				return i
			}
			way += z.sets
			word >>= width
		}
	}
	return -1
}

// Candidates implements Array by performing the replacement walk. The
// appended lines are deduplicated; free (invalid) lines are included but not
// expanded (there is no resident address to relocate through them). The walk
// graph itself stays in internal state for the subsequent Install.
//
//fs:allocfree
func (z *ZCache) Candidates(addr uint64, dst []int) []int {
	z.walkAddr = addr
	z.walkValid = true

	// Level 0: the incoming address's own positions.
	nodes := z.expand(z.nodes[:0], addr, -1)
	levelStart, levelEnd := 0, len(nodes)
	for l := 1; l < z.levels; l++ {
		for i := levelStart; i < levelEnd; i++ {
			// A free line is a terminal candidate.
			if line := nodes[i].line; z.valid.get(line) {
				nodes = z.expand(nodes, z.addrs[line], i)
			}
		}
		levelStart, levelEnd = levelEnd, len(nodes)
	}
	for _, n := range nodes {
		dst = append(dst, n.line)
		z.seen[n.line>>6] = 0
	}
	z.nodes = nodes
	return dst
}

// expand appends the positions of resident — the address held by node
// parent, or the incoming address for parent -1 — that the walk does not
// hold yet, which rules out the parent's own line.
//
//fs:allocfree
func (z *ZCache) expand(nodes []walkNode, resident uint64, parent int) []walkNode {
	way, width, mask := 0, z.width&63, uint64(z.sets-1)
	for _, word := range z.hash(resident) {
		for range z.lanes {
			line := way + int(word&mask)
			seen, bit := &z.seen[line>>6], uint64(1)<<(uint(line)&63)
			if *seen&bit == 0 {
				*seen |= bit
				nodes = append(nodes, walkNode{line: line, parent: parent})
			}
			way += z.sets
			word >>= width
		}
	}
	return nodes
}

// AddrOf implements Array.
//
//fs:allocfree
func (z *ZCache) AddrOf(line int) (uint64, bool) {
	return z.addrs[line], z.valid.get(line)
}

// Install implements Array. victim must come from the Candidates call for
// the same address; lines along the walk path from the victim back to a
// root are relocated (appended to moves, applied in order) and addr is
// installed at the vacated root.
//
//fs:allocfree
func (z *ZCache) Install(addr uint64, victim int, moves []Move) []Move {
	if !z.walkValid || addr != z.walkAddr {
		panic("cachearray: Install without a matching Candidates walk")
	}
	z.walkValid = false
	nodeIdx := -1
	for i, n := range z.nodes {
		if n.line == victim {
			nodeIdx = i
			break
		}
	}
	if nodeIdx < 0 {
		panic("cachearray: victim was not a walk candidate")
	}
	// Relocate parent contents downward along the path, child-first: each
	// copy reads a parent line that has not yet been overwritten.
	cur := nodeIdx
	for z.nodes[cur].parent >= 0 {
		p := z.nodes[cur].parent
		from, to := z.nodes[p].line, z.nodes[cur].line
		// from was expanded, so it is valid.
		z.addrs[to] = z.addrs[from]
		z.valid.set(to)
		moves = append(moves, Move{From: from, To: to})
		cur = p
	}
	root := z.nodes[cur].line
	z.addrs[root] = addr
	z.valid.set(root)
	return moves
}
