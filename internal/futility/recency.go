package futility

import (
	"fmt"
	"math/bits"
)

// recencyIndex is one partition's recency order: the Bennett–Kruskal
// stack-distance structure. Every access takes the next slot of an
// access-ordered slot sequence, so slot order is recency order, and a
// Fenwick (binary-indexed) tree over slot liveness counts the lines more
// recent than a given slot in ~log₂(cap) additions over a flat array —
// no key comparisons and no pointers.
type recencyIndex struct {
	// tree is the 1-based Fenwick tree: tree[i] counts the live slots in
	// (i − lowbit(i), i]. lineAt[s] is the line holding slot s, or −1 once
	// the slot is retired. Both have cap+1 entries; cap is 0 or a power of
	// two, which is what lets worst descend without range checks.
	tree   []int32
	lineAt []int32
	cap    int32
	next   int32 // slots 1..next−1 have been handed out since the last compaction
	live   int32
	// lastSeq is the largest Seq seen; group is the lowest slot handed out
	// under it. Slots group..next−1 are exactly the accesses carrying
	// lastSeq, which an equal-Seq insert must be ordered below.
	lastSeq uint64
	group   int32
}

// add adjusts the liveness of slot s by d.
//
//fs:allocfree
func (p *recencyIndex) add(s, d int32) {
	tree := p.tree
	for i := s; i <= p.cap; i += i & -i {
		tree[i] += d
	}
}

// prefix counts the live slots in 1..s.
//
//fs:allocfree
func (p *recencyIndex) prefix(s int32) int32 {
	tree := p.tree
	var n int32
	for i := s; i > 0; i &= i - 1 {
		n += tree[i]
	}
	return n
}

// worst returns the lowest live slot by Fenwick descent; live must be > 0.
//
//fs:allocfree
func (p *recencyIndex) worst() int32 {
	var pos int32
	for step := p.cap; step > 0; step >>= 1 {
		// tree[cap] is the whole population (> 0), so the first probe
		// never advances and pos+step stays below cap afterwards.
		if p.tree[pos+step] == 0 {
			pos += step
		}
	}
	return pos + 1
}

// take hands the next slot to line. The caller has made room (compact).
//
//fs:allocfree
func (p *recencyIndex) take(line int32) int32 {
	s := p.next
	p.next++
	p.lineAt[s] = line
	p.add(s, 1)
	return s
}

// retire marks slot s dead.
//
//fs:allocfree
func (p *recencyIndex) retire(s int32) {
	p.lineAt[s] = -1
	p.add(s, -1)
}

// compact renumbers the live lines 1..live in slot order and rebuilds the
// tree, in O(cap). It runs when the slots are used up; since the capacity is
// the power of two in (2·live, 4·live] (and never shrinks), at least as many
// accesses as the rebuild costs pass before the next one: amortised O(1) per
// access, and allocation-free once the partition has reached its size.
//
//fs:allocfree
func (p *recencyIndex) compact(slot []int32) {
	lineAt := p.lineAt
	if c := int32(1) << bits.Len32(uint32(2*p.live)); c > p.cap {
		p.cap = c
		//fslint:ignore allocfree cold growth while a partition fills; steady-state compaction reuses both arrays
		p.tree, p.lineAt = make([]int32, c+1), make([]int32, c+1)
	}
	var w, group int32
	for s := int32(1); s < p.next; s++ {
		l := lineAt[s]
		if l < 0 {
			continue
		}
		w++
		if group == 0 && s >= p.group {
			group = w
		}
		p.lineAt[w] = l
		slot[l] = w
	}
	p.next = w + 1
	if group == 0 {
		group = p.next
	}
	p.group = group
	tree := p.tree
	for i := int32(1); i <= p.cap; i++ {
		tree[i] = 0
		if i <= w {
			tree[i] = 1
		}
	}
	for i := int32(1); i <= p.cap; i++ {
		if j := i + i&-i; j <= p.cap {
			tree[j] += tree[i]
		}
	}
}

// insertBelowGroup gives line the lowest slot of the lastSeq group by moving
// every slot of the group up one. Only liveness changes touch the tree: with
// no retired slot inside the group that is the single new top slot.
//
//fs:allocfree
func (p *recencyIndex) insertBelowGroup(line int32, slot []int32) int32 {
	lineAt := p.lineAt
	lineAt[p.next] = -1
	for s := p.next; s > p.group; s-- {
		l := lineAt[s-1]
		switch {
		case l >= 0:
			slot[l] = s
			if lineAt[s] < 0 {
				p.add(s, 1)
			}
		case lineAt[s] >= 0:
			p.add(s, -1)
		}
		lineAt[s] = l
	}
	if lineAt[p.group] < 0 {
		p.add(p.group, 1)
	}
	lineAt[p.group] = line
	p.next++
	return p.group
}

// ExactLRU ranks lines by recency of last access: the least recently used
// line of a partition is its most useless, rank M of M.
//
// Recency is Context.Seq, which must not decrease within a partition. Where
// several accesses to one partition carry the same Seq (core's demotions:
// every line a Vantage decision demotes is inserted into the unmanaged
// partition under the Seq of the access that caused it), an OnInsert ranks
// the new line as older — more useless — than every line already carrying
// that Seq, so a group of equal-Seq inserts ends up most-useless-last-
// inserted. An OnHit always makes its line the partition's most recent.
// Relocation (OnMove) never reorders.
//
// Each partition keeps a recencyIndex; a line's whole state is its slot.
type ExactLRU struct {
	parts []recencyIndex
	// slot is each line's slot in its partition's index; 0 is untracked.
	slot []int32
	// fLen caches float64(parts[p].live) so the per-candidate futility
	// normalization skips the int→float conversion. It is the cached
	// denominator, not a reciprocal: x/float64(M) and x*(1/M) differ in the
	// last ulp for most M, and futility values must stay bit-identical.
	fLen []float64
}

// NewExactLRU returns an exact LRU ranker.
func NewExactLRU(lines, parts int) *ExactLRU {
	if lines <= 0 || parts <= 0 {
		panic("futility: lines and parts must be positive")
	}
	if lines >= 1<<28 {
		// Capacity reaches 4× the population and add steps one past it.
		panic("futility: too many lines for 32-bit recency slots")
	}
	r := &ExactLRU{
		parts: make([]recencyIndex, parts),
		slot:  make([]int32, lines),
		fLen:  make([]float64, parts),
	}
	for i := range r.parts {
		r.parts[i].next, r.parts[i].group = 1, 1
	}
	return r
}

// Name implements Ranker.
func (r *ExactLRU) Name() string { return "exact-lru" }

// advance checks seq against the partition's clock and makes room for one
// more slot.
//
//fs:allocfree
func (r *ExactLRU) advance(p *recencyIndex, part int, seq uint64) {
	if seq < p.lastSeq {
		panicSeqDecreased(part, seq, p.lastSeq)
	}
	if p.next > p.cap {
		p.compact(r.slot)
	}
}

// OnInsert implements Ranker.
//
//fs:allocfree
func (r *ExactLRU) OnInsert(line, part int, ctx Context) {
	if r.slot[line] != 0 {
		panic("futility: OnInsert of tracked line")
	}
	p := &r.parts[part]
	r.advance(p, part, ctx.Seq)
	if ctx.Seq == p.lastSeq && p.group < p.next {
		r.slot[line] = p.insertBelowGroup(int32(line), r.slot)
	} else {
		p.lastSeq, p.group = ctx.Seq, p.next
		r.slot[line] = p.take(int32(line))
	}
	p.live++
	r.fLen[part] = float64(p.live)
}

// OnHit implements Ranker.
//
//fs:allocfree
func (r *ExactLRU) OnHit(line, part int, ctx Context) {
	if r.slot[line] == 0 {
		panic("futility: OnHit of untracked line")
	}
	p := &r.parts[part]
	r.advance(p, part, ctx.Seq)
	p.retire(r.slot[line])
	s := p.take(int32(line))
	r.slot[line] = s
	if ctx.Seq > p.lastSeq {
		p.lastSeq, p.group = ctx.Seq, s
	}
}

// OnEvict implements Ranker.
//
//fs:allocfree
func (r *ExactLRU) OnEvict(line, part int) {
	s := r.slot[line]
	if s == 0 {
		panic("futility: OnEvict of untracked line")
	}
	p := &r.parts[part]
	p.retire(s)
	r.slot[line] = 0
	p.live--
	r.fLen[part] = float64(p.live)
}

// OnMove implements Ranker: the slot, and with it the rank, is unchanged.
//
//fs:allocfree
func (r *ExactLRU) OnMove(from, to, part int) {
	s := r.slot[from]
	if s == 0 {
		panic("futility: OnMove of untracked line")
	}
	if r.slot[to] != 0 {
		// Destination metadata is about to be overwritten by the controller
		// applying the same move; it must already have been evicted/moved.
		panic("futility: OnMove onto a tracked line")
	}
	r.parts[part].lineAt[s] = int32(to)
	r.slot[to] = s
	r.slot[from] = 0
}

// futilityOf is the prefix sum behind Futility, Raw and FutilityRaw: the
// line's rank is one plus the live slots above its own.
func (r *ExactLRU) futilityOf(line, part int) float64 {
	s := r.slot[line]
	if s == 0 {
		panic("futility: Futility of untracked line")
	}
	p := &r.parts[part]
	return float64(p.live-p.prefix(s)+1) / r.fLen[part]
}

// Futility implements Ranker: recency rank / partition size.
//
//fs:allocfree
func (r *ExactLRU) Futility(line, part int) float64 {
	return r.futilityOf(line, part)
}

// Raw implements Ranker: the futility scaled to 32 bits, so raw ordering
// matches normalized ordering.
//
//fs:allocfree
func (r *ExactLRU) Raw(line, part int) uint64 {
	return uint64(r.futilityOf(line, part) * (1 << 32))
}

// FutilityRaw implements FastRanker with one prefix sum.
//
//fs:allocfree
func (r *ExactLRU) FutilityRaw(line, part int) (float64, uint64) {
	f := r.futilityOf(line, part)
	return f, uint64(f * (1 << 32))
}

// Size implements Ranker.
//
//fs:allocfree
func (r *ExactLRU) Size(part int) int { return int(r.parts[part].live) }

// Worst implements WorstTracker in O(log cap).
//
//fs:allocfree
func (r *ExactLRU) Worst(part int) int {
	p := &r.parts[part]
	if p.live == 0 {
		return -1
	}
	return int(p.lineAt[p.worst()])
}

// panicSeqDecreased keeps the formatting out of the per-access methods.
//
//go:noinline
func panicSeqDecreased(part int, seq, last uint64) {
	panic("futility: " + fmt.Sprintf("Seq %d after %d in partition %d: Context.Seq must not decrease", seq, last, part))
}
