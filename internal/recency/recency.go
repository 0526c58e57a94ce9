// Package recency is the repository's one stack-distance index: the
// Bennett–Kruskal structure behind both the exact LRU ranker
// (futility.ExactLRU, one Index per partition) and the miss-ratio-curve
// profiler (alloc.Profiler, one Index over its shadow tags).
//
// Every access takes the next slot of an access-ordered slot sequence, so
// slot order is recency order, and a Fenwick (binary-indexed) tree over slot
// liveness counts the lines more recent than a given slot in ~log₂(cap)
// additions over a flat array — no key comparisons and no pointers. A line's
// rank (1 = most recent) is its LRU stack distance.
package recency

import (
	"fmt"
	"math/bits"
)

// Index is one recency order over lines identified by small non-negative
// integers. A line's whole state is its slot, kept in a caller-owned table
// (slot[line]; 0 is untracked) that every mutating method takes and keeps
// current: several indexes over disjoint lines may share one table. The
// zero Index is not usable; build one with New.
type Index struct {
	// tree is the 1-based Fenwick tree: tree[i] counts the live slots in
	// (i − lowbit(i), i]. lineAt[s] is the line holding slot s, or −1 once
	// the slot is retired. Both have cap+1 entries; cap is 0 or a power of
	// two, which is what lets Worst descend without range checks.
	tree   []int32
	lineAt []int32
	cap    int32
	next   int32 // slots 1..next−1 have been handed out since the last compaction
	live   int32
	// lastSeq is the largest seq seen; group is the lowest slot handed out
	// under it. Slots group..next−1 are exactly the accesses carrying
	// lastSeq, which an equal-seq insert must be ordered below.
	lastSeq uint64
	group   int32
}

// New returns an empty index. Its arrays are allocated as it fills.
func New() Index { return Index{next: 1, group: 1} }

// Live returns the number of tracked lines.
//
//fs:allocfree
func (p *Index) Live() int32 { return p.live }

// LastSeq returns the largest seq passed to Insert or Hit; neither accepts a
// smaller one.
//
//fs:allocfree
func (p *Index) LastSeq() uint64 { return p.lastSeq }

// Cap returns the slot capacity: 0 or a power of two, and it never shrinks.
func (p *Index) Cap() int32 { return p.cap }

// Free returns the slots left before the next access compacts the index.
func (p *Index) Free() int32 { return p.cap - p.next + 1 }

// add adjusts the liveness of slot s by d.
//
//fs:allocfree
func (p *Index) add(s, d int32) {
	tree := p.tree
	for i := s; i <= p.cap; i += i & -i {
		tree[i] += d
	}
}

// take hands the next slot to line. The caller has made room (compact).
//
//fs:allocfree
func (p *Index) take(line int32) int32 {
	s := p.next
	p.next++
	p.lineAt[s] = line
	p.add(s, 1)
	return s
}

// retire marks slot s dead.
//
//fs:allocfree
func (p *Index) retire(s int32) {
	p.lineAt[s] = -1
	p.add(s, -1)
}

// compact renumbers the live lines 1..live in slot order and rebuilds the
// tree, in O(cap). It runs when the slots are used up; since the capacity is
// the power of two in (2·live, 4·live] (and never shrinks), at least as many
// accesses as the rebuild costs pass before the next one: amortised O(1) per
// access, and allocation-free once the population has reached its size.
//
//fs:allocfree
func (p *Index) compact(slot []int32) {
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
func (p *Index) insertBelowGroup(line int32, slot []int32) int32 {
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

// Insert starts tracking line, which must be untracked, as accessed at seq
// (not below LastSeq). A later seq makes it the most recent line. Under the
// current LastSeq it ranks as older than every line already carrying that
// seq, so a group of equal-seq inserts ends up oldest-last-inserted.
//
//fs:allocfree
func (p *Index) Insert(line int32, seq uint64, slot []int32) {
	if p.next > p.cap {
		p.compact(slot)
	}
	if seq == p.lastSeq && p.group < p.next {
		slot[line] = p.insertBelowGroup(line, slot)
	} else {
		p.lastSeq, p.group = seq, p.next
		slot[line] = p.take(line)
	}
	p.live++
}

// Hit makes the tracked line the most recent, as accessed at seq (not below
// LastSeq) — also among lines carrying that same seq.
//
//fs:allocfree
func (p *Index) Hit(line int32, seq uint64, slot []int32) {
	if p.next > p.cap {
		p.compact(slot)
	}
	p.retire(slot[line])
	s := p.take(line)
	slot[line] = s
	if seq > p.lastSeq {
		p.lastSeq, p.group = seq, s
	}
}

// Evict stops tracking line.
//
//fs:allocfree
func (p *Index) Evict(line int32, slot []int32) {
	p.retire(slot[line])
	slot[line] = 0
	p.live--
}

// Move renames the tracked line from to the untracked line to; the slot, and
// with it the rank, is unchanged.
//
//fs:allocfree
func (p *Index) Move(from, to int32, slot []int32) {
	s := slot[from]
	p.lineAt[s] = to
	slot[to] = s
	slot[from] = 0
}

// Rank returns the recency rank of the line in slot s: one plus the live
// slots above its own (the population less a Fenwick prefix sum), so 1 is
// the most recent line and Live() the least. It is the line's LRU stack
// distance.
//
//fs:allocfree
func (p *Index) Rank(s int32) int32 {
	tree := p.tree
	n := p.live + 1
	for i := s; i > 0; i &= i - 1 {
		n -= tree[i]
	}
	return n
}

// Worst returns the least recently used line — the one in the lowest live
// slot, found by Fenwick descent in O(log cap) — or −1 when the index is
// empty.
//
//fs:allocfree
func (p *Index) Worst() int32 {
	if p.live == 0 {
		return -1
	}
	var pos int32
	for step := p.cap; step > 0; step >>= 1 {
		// tree[cap] is the whole population (> 0), so the first probe
		// never advances and pos+step stays below cap afterwards.
		if p.tree[pos+step] == 0 {
			pos += step
		}
	}
	return p.lineAt[pos+1]
}

// CheckInvariants audits the index against the slot table it was driven
// with: the Fenwick nodes must equal the live-slot counts of the ranges they
// cover, slot ↔ lineAt must be a bijection between the live slots and this
// index's lines, and the live count must agree with the slots. It marks each
// of its lines in claimed (len(slot) entries) and fails on one already
// marked, so indexes sharing a table are checked for overlap by passing the
// same claimed to each.
func (p *Index) CheckInvariants(slot []int32, claimed []bool) error {
	if p.cap&(p.cap-1) != 0 || len(p.tree) != len(p.lineAt) || (p.cap > 0 && len(p.tree) != int(p.cap)+1) {
		return fmt.Errorf("recency: capacity %d with %d tree and %d slot entries", p.cap, len(p.tree), len(p.lineAt))
	}
	if p.next < 1 || p.next > p.cap+1 || p.group < 1 || p.group > p.next {
		return fmt.Errorf("recency: next slot %d, group %d out of range for capacity %d", p.next, p.group, p.cap)
	}
	// count[s] is the number of live slots in 1..s.
	count := make([]int32, p.cap+1)
	for s := int32(1); s <= p.cap; s++ {
		count[s] = count[s-1]
		if s >= p.next || p.lineAt[s] < 0 {
			continue
		}
		count[s]++
		l := p.lineAt[s]
		if int(l) >= len(slot) || slot[l] != s || claimed[l] {
			return fmt.Errorf("recency: slot %d holds line %d, whose slot is not (only) that one", s, l)
		}
		claimed[l] = true
	}
	for i := int32(1); i <= p.cap; i++ {
		if want := count[i] - count[i&(i-1)]; p.tree[i] != want {
			return fmt.Errorf("recency: Fenwick node %d = %d, live slots in its range %d", i, p.tree[i], want)
		}
	}
	if live := count[p.cap]; p.live != live {
		return fmt.Errorf("recency: live count %d, live slots %d", p.live, live)
	}
	return nil
}
