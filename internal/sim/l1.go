// Package sim is the trace-driven timing simulator reproducing the paper's
// methodology (§VII): per-core private L1s filter each thread's memory
// reference stream into an L2 access trace; the shared, partitioned L2 is
// then simulated across all threads with network and memory latencies fed
// back into trace timing, delaying future accesses (the paper's
// trace-driven approach with timing feedback).
package sim

import "fscache/internal/trace"

// l1Ways is the L1's associativity (Table II).
const l1Ways = 4

// L1 is a small private 4-way set-associative cache with true-LRU
// replacement, used only as a filter: it turns a memory-reference stream
// into the L2 access stream. Table II's L1 is 32 KB with 64 B lines.
type L1 struct {
	sets  int
	tags  []uint64
	valid []bool
	use   []uint64
	tick  uint64
}

// NewL1 builds an L1 with the given total lines (a power of two, at least
// the 4 ways).
func NewL1(lines int) *L1 {
	if lines < l1Ways || lines&(lines-1) != 0 {
		panic("sim: L1 lines must be a power of two, at least the 4 ways")
	}
	return &L1{
		sets:  lines / l1Ways,
		tags:  make([]uint64, lines),
		valid: make([]bool, lines),
		use:   make([]uint64, lines),
	}
}

// Access performs one reference and reports whether it hit in the L1.
// On a miss the line is installed (evicting the set's LRU way).
func (c *L1) Access(addr uint64) bool {
	c.tick++
	set := int(addr) & (c.sets - 1)
	base := set * l1Ways
	lru, lruUse := base, c.use[base]
	for w := 0; w < l1Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == addr {
			c.use[i] = c.tick
			return true
		}
		if !c.valid[i] {
			lru, lruUse = i, 0
		} else if c.use[i] < lruUse {
			lru, lruUse = i, c.use[i]
		}
	}
	c.tags[lru] = addr
	c.valid[lru] = true
	c.use[lru] = c.tick
	return false
}

// BuildL2Trace drives gen through a fresh L1 until n L2 accesses (L1
// misses) are produced, and returns the L2 trace with gaps re-aggregated:
// each L2 access's Gap counts all instructions (including L1-hit memory
// references) since the previous L2 access. At most 1000×n generator
// references are consumed, to guarantee termination even for workloads the
// L1 absorbs entirely; fewer than n accesses may then be returned.
func BuildL2Trace(gen trace.Generator, l1 *L1, n int) *trace.Trace {
	if n <= 0 {
		panic("sim: BuildL2Trace needs a positive access count")
	}
	maxRefs := 1000 * n
	out := &trace.Trace{Accesses: make([]trace.Access, 0, n)}
	var gap uint64
	for refs := 0; refs < maxRefs && len(out.Accesses) < n; refs++ {
		a := gen.Next()
		gap += uint64(a.Gap)
		if l1.Access(a.Addr) {
			gap++ // the hit itself retires one instruction
			continue
		}
		g := gap
		if g > 1<<31 {
			g = 1 << 31
		}
		out.Accesses = append(out.Accesses, trace.Access{Addr: a.Addr, Gap: uint32(g), Kind: a.Kind})
		gap = 0
	}
	return out
}
