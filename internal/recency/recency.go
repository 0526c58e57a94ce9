// Package recency is the repository's one stack-distance index: the
// Bennett–Kruskal structure behind both the exact LRU ranker
// (futility.ExactLRU, one order per partition) and the miss-ratio-curve
// profiler (alloc.Profiler, one order over its shadow tags).
//
// Every access takes the next slot of an access-ordered slot sequence, so
// slot order is recency order. Slot liveness is a bitmap, one bit per slot,
// with a Fenwick (binary-indexed) tree over the popcounts of its 64-slot
// words: the lines more recent than a given slot are one masked popcount
// plus ~log₂(cap/64) additions over a flat array — no key comparisons and no
// pointers. A line's rank (1 = most recent) is its LRU stack distance. With
// the slot → line table the index costs a line id and a little over a bit
// per slot: 2 bytes of id while line ids fit in 16 bits, 4 from 65,537 lines
// up (Table). The caller's line → slot table is likewise 2 bytes a line until
// a slot can reach 2^16, from 43,627 lines up (NewSlots). Each compaction
// sizes the slots to 1.5 times the population plus minFree and resizes them
// only once the population has moved past ×6/5 or ×½, so at a compaction
// there are 1.25–3 slots per tracked line (1.5–1.8 once settled), growing or
// shrinking.
//
// New builds n such orders over one set of arrays: one bitmap, one Fenwick
// array and one slot → line table (its one or two halves), each order owning
// a segment of each in order-number order. A resize re-lays the whole set
// out into one fresh allocation per array and copies the other orders'
// segments unchanged; slots are order-relative, so no caller's slot table
// changes. n orders thus hold three live allocations (four with a high half)
// whatever n is, and a resize frees its predecessors whole instead of
// leaving one order's dead arrays between others' live ones.
// An array of a page or more gets a capacity of whole pages, so it has a span
// of its own: a survivor of resizes pins only its own pages, never a span
// shared with dead arrays of other sizes.
package recency

import (
	"fmt"
	"math/bits"

	"fscache/internal/stats"
)

// Index is one recency order over lines identified by small non-negative
// integers. A line's whole state is its slot, kept in a caller-owned table
// (slot.At(line); 0 is untracked, NewSlots makes one) that every mutating
// method takes and keeps current: the orders of one set, over disjoint lines,
// share one table. Orders come from New and must be used in place, through
// the slice it returns: a copy of an Index is not usable.
type Index struct {
	// words is the liveness bitmap: slot s is bit (s−1)%64 of words[(s−1)/64].
	// nodes is the 1-based Fenwick tree over word popcounts: nodes[i] counts
	// the live slots of words (i − lowbit(i), i], numbering words from 1.
	// lineAt[s] is the line holding slot s while its liveness bit is set; the
	// bitmap alone says which slots are live, so a retired slot keeps a stale
	// entry that nothing reads. cap is a multiple of minCap and lineAt has
	// cap+1 entries; words has the power of two ≥ cap/64
	// entries, all zero past cap, which is what lets Worst descend without
	// range checks, and nodes one more. All three are this order's segments
	// of its set's arrays.
	words  []uint64
	nodes  []int32
	lineAt Table
	set    *set
	cap    int32
	next   int32 // slots 1..next−1 have been handed out since the last compaction
	live   int32
	// lastSeq is the largest seq seen; group is the lowest slot handed out
	// under it. Slots group..next−1 are exactly the accesses carrying
	// lastSeq, which an equal-seq insert must be ordered below.
	lastSeq uint64
	group   int32
}

// minCap is the smallest non-zero capacity: one bitmap word. minFree is the
// fewest slots a compaction leaves free, so a small index does not compact
// every few accesses. pageBytes is the Go runtime's page: from 8 to 32 KiB
// every whole number of pages is a size class of one object a span, and a
// larger object is a span of whole pages of its own.
const (
	minCap    = 64
	minFree   = 32
	pageBytes = 8 << 10
)

// set is the storage the orders of one New share: each array is the
// concatenation of the orders' segments, in order-number order. lines bounds
// the line ids, 0..lines−1, and so the orders' total population.
type set struct {
	words  []uint64
	nodes  []int32
	lineAt Table
	orders []Index
	lines  int32
}

// New returns n empty orders over one set of arrays for lines 0..lines−1,
// each at the minimum capacity, so that a first access does not resize. Their
// slot table is NewSlots(lines).
func New(n int, lines int32) []Index {
	s := &set{orders: make([]Index, n), lines: lines}
	for i := range s.orders {
		s.orders[i] = Index{set: s, cap: minCap, next: 1, group: 1}
	}
	s.relayout(nil)
	return s.orders
}

// NewSlots returns the empty slot table of the lines of a set New(n, lines)
// builds: no order's capacity, so no slot, exceeds capFor(lines).
func NewSlots(lines int32) Table { return NewTable(int(lines), capFor(lines)) }

// wordsFor is the bitmap length for capacity c: the power of two ≥ c/64.
func wordsFor(c int32) int32 { return int32(1) << bits.Len32(uint32(c/64-1)) }

// pageCap is the capacity relayout gives an array of n elements of size
// bytes: n under one page, else n rounded up to whole pages.
func pageCap(n, size int32) int32 {
	if per := pageBytes / size; n >= per {
		return (n + per - 1) / per * per
	}
	return n
}

// relayout moves every order to fresh segments sized to its capacity, in one
// new allocation per array of whole pages once it reaches a page, copying the
// contents of all but resized — whose compaction is about to rebuild its own.
func (s *set) relayout(resized *Index) {
	var nw, nl int32
	for i := range s.orders {
		nw += wordsFor(s.orders[i].cap)
		nl += s.orders[i].cap + 1
	}
	nn := nw + int32(len(s.orders))
	//fslint:ignore allocfree cold relayout when an order's population has moved ×6/5 or ×½; other compactions reuse their segments
	words, nodes, lineAt := make([]uint64, nw, pageCap(nw, 8)), make([]int32, nn, pageCap(nn, 4)), makeTable(nl, pageCap(nl, 2), s.lines-1)
	s.words, s.nodes, s.lineAt = words, nodes, lineAt
	for i := range s.orders {
		p := &s.orders[i]
		w, l := wordsFor(p.cap), p.cap+1
		if p != resized {
			copy(words, p.words)
			copy(nodes, p.nodes)
			copyTable(&lineAt, &p.lineAt)
		}
		p.words, words = words[:w:w], words[w:]
		p.nodes, nodes = nodes[:w+1:w+1], nodes[w+1:]
		p.lineAt, lineAt = lineAt.split(l)
	}
}

// Live returns the number of tracked lines.
//
//fs:allocfree
func (p *Index) Live() int32 { return p.live }

// LastSeq returns the largest seq passed to Insert or Hit; neither accepts a
// smaller one.
//
//fs:allocfree
func (p *Index) LastSeq() uint64 { return p.lastSeq }

// Cap returns the slot capacity: a multiple of 64, at least 64, that
// compactions resize with the population, up or down.
func (p *Index) Cap() int32 { return p.cap }

// Bytes returns the capacity in bytes of the arrays p's set holds for all its
// orders: bitmap words, Fenwick nodes and slot entries.
func (p *Index) Bytes() int {
	s := p.set
	return 8*cap(s.words) + 4*cap(s.nodes) + s.lineAt.Bytes()
}

// Free returns the slots left before the next access compacts the index.
func (p *Index) Free() int32 { return p.cap - p.next + 1 }

// holds reports whether slot s holds a line: its liveness bit.
//
//fs:allocfree
func (p *Index) holds(s int32) bool { return p.words[(s-1)>>6]>>uint((s-1)&63)&1 != 0 }

// add flips the liveness bit of slot s and adjusts the counts above its word
// by d: +1 for a dead slot coming alive, −1 for the reverse.
//
//fs:allocfree
func (p *Index) add(s, d int32) {
	p.words[(s-1)>>6] ^= 1 << uint((s-1)&63)
	nodes := p.nodes
	for i := (s-1)>>6 + 1; int(i) < len(nodes); i += i & -i {
		nodes[i] += d
	}
}

// take hands the next slot to line. The caller has made room (compact).
//
//fs:allocfree
func (p *Index) take(line int32) int32 {
	s := p.next
	p.next++
	p.lineAt.Put(s, line)
	p.add(s, 1)
	return s
}

// compact renumbers the live lines 1..live in slot order and rebuilds the
// bitmap and its counts, in O(cap/64 + live). It runs when the slots are
// used up. When the capacity is below 1.25·live or above 3·live, or would
// leave fewer than minFree slots free, it resizes to 1.5·live + minFree
// rounded up to a word (capFor). So each compaction leaves at least
// max(live/4, minFree) slots free — at least a quarter as many accesses as
// the rebuild costs pass before the next one, and about half at the resize
// target: amortised O(1) per access — and the set allocates only when an
// order's population has moved past ×6/5 or ×½ since its last resize.
//
//fs:allocfree
func (p *Index) compact(slot *Table) {
	words, lineAt := p.words, p.lineAt
	if c, l := int64(p.cap), int64(p.live); 4*c < 5*l || c > 3*l || c-l < minFree {
		if n := capFor(p.live); n != p.cap {
			p.cap = n
			p.set.relayout(p)
			stats.CountRelayout()
		}
	}
	var w, group int32
	for wi, word := range words {
		for ; word != 0; word &= word - 1 {
			s := int32(wi<<6+bits.TrailingZeros64(word)) + 1
			w++
			if group == 0 && s >= p.group {
				group = w
			}
			l := lineAt.At(s)
			p.lineAt.Put(w, l)
			slot.Put(l, w)
		}
	}
	stats.CountCompact(w + int32(len(words)))
	p.next = w + 1
	if group == 0 {
		group = p.next
	}
	p.group = group
	nodes := p.nodes
	for i := range p.words {
		// The low n bits; a shift by 64 gives 0, so a full word is all ones.
		n := min(max(w-int32(i<<6), 0), 64)
		p.words[i], nodes[i+1] = uint64(1)<<uint(n)-1, n
	}
	for i := 1; i < len(nodes); i++ {
		if j := i + i&-i; j < len(nodes) {
			nodes[j] += nodes[i]
		}
	}
}

// capFor is the capacity a compaction resizes to for live lines:
// ⌈1.5·live⌉ + minFree rounded up to a word.
func capFor(live int32) int32 { return (live + (live+1)/2 + minFree + minCap - 1) &^ (minCap - 1) }

// insertBelowGroup gives line the lowest slot of the lastSeq group by moving
// every slot of the group up one. Only liveness changes touch the bitmap: with
// no retired slot inside the group that is the single new top slot. Slot
// next is dead (nothing past the handed-out slots is live).
//
//fs:allocfree
func (p *Index) insertBelowGroup(line int32, slot *Table) int32 {
	lineAt := p.lineAt
	for s := p.next; s > p.group; s-- {
		src, dst := p.holds(s-1), p.holds(s)
		if src {
			l := lineAt.At(s - 1)
			lineAt.Put(s, l)
			slot.Put(l, s)
		}
		switch {
		case src && !dst:
			p.add(s, 1)
		case dst && !src:
			p.add(s, -1)
		}
	}
	if !p.holds(p.group) {
		p.add(p.group, 1)
	}
	lineAt.Put(p.group, line)
	p.next++
	return p.group
}

// Insert starts tracking line, which must be untracked, as accessed at seq
// (not below LastSeq). A later seq makes it the most recent line. Under the
// current LastSeq it ranks as older than every line already carrying that
// seq, so a group of equal-seq inserts ends up oldest-last-inserted.
//
//fs:allocfree
func (p *Index) Insert(line int32, seq uint64, slot *Table) {
	if p.next > p.cap {
		p.compact(slot)
	}
	if seq == p.lastSeq && p.group < p.next {
		slot.Put(line, p.insertBelowGroup(line, slot))
	} else {
		p.lastSeq, p.group = seq, p.next
		slot.Put(line, p.take(line))
	}
	p.live++
}

// Hit makes the tracked line the most recent, as accessed at seq (not below
// LastSeq) — also among lines carrying that same seq.
//
//fs:allocfree
func (p *Index) Hit(line int32, seq uint64, slot *Table) {
	if p.next > p.cap {
		p.compact(slot)
	}
	p.add(slot.At(line), -1)
	// take, written out: it is past the inlining budget, and a hit is the
	// index's hottest path.
	s := p.next
	p.next++
	p.lineAt.Put(s, line)
	p.add(s, 1)
	slot.Put(line, s)
	if seq > p.lastSeq {
		p.lastSeq, p.group = seq, s
	}
}

// Evict stops tracking line.
//
//fs:allocfree
func (p *Index) Evict(line int32, slot *Table) {
	p.add(slot.At(line), -1)
	slot.Put(line, 0)
	p.live--
}

// Move renames the tracked line from to the untracked line to; the slot, and
// with it the rank, is unchanged.
//
//fs:allocfree
func (p *Index) Move(from, to int32, slot *Table) {
	s := slot.At(from)
	p.lineAt.Put(s, to)
	slot.Put(to, s)
	slot.Put(from, 0)
}

// Rank returns the recency rank of the line in slot s: one plus the live
// slots above its own (the population less the live slots up to s: a masked
// popcount of its word plus a Fenwick prefix sum over the words below), so 1
// is the most recent line and Live() the least. It is the line's LRU stack
// distance.
//
//fs:allocfree
func (p *Index) Rank(s int32) int32 {
	w := (s - 1) >> 6
	n := p.live + 1 - int32(bits.OnesCount64(p.words[w]<<uint(63-(s-1)&63)))
	nodes := p.nodes
	for i := w; i > 0; i &= i - 1 {
		n -= nodes[i]
	}
	return n
}

// Worst returns the least recently used line — the one in the lowest live
// slot, found by Fenwick descent to its word in O(log(cap/64)) — or −1 when
// the index is empty.
//
//fs:allocfree
func (p *Index) Worst() int32 {
	if p.live == 0 {
		return -1
	}
	var pos int32
	for step := int32(len(p.words)); step > 0; step >>= 1 {
		// The top node is the whole population (> 0), so the first probe
		// never advances and pos+step stays below len(words) afterwards.
		if p.nodes[pos+step] == 0 {
			pos += step
		}
	}
	return p.lineAt.At(pos<<6 + int32(bits.TrailingZeros64(p.words[pos])) + 1)
}

// CheckInvariants audits the order against the slot table it was driven
// with: the segments must have the shape the capacity fixes and sit in the
// set's arrays right after those of the orders before it (so no two overlap
// and none lies outside the set), each of the set's arrays must have the
// capacity relayout gives it (whole pages from one page up), the slot table
// must have the set's line count and both id tables the halves their bounds
// call for (NewSlots; line ids up to lines−1), no slot from
// next on (none past the capacity) may be live, the Fenwick nodes must equal
// the popcounts of the words they cover, slot ↔ lineAt must be a bijection
// between the live slots and this order's lines,
// and the live count must agree with the slots. It marks each of its lines
// in claimed (slot.Len() entries) and fails on one already marked, so orders
// sharing a table are checked for overlap by passing the same claimed to
// each.
func (p *Index) CheckInvariants(slot *Table, claimed []bool) error {
	nw := len(p.words)
	if p.cap < minCap || p.cap%minCap != 0 || nw != int(wordsFor(p.cap)) || len(p.nodes) != nw+1 || p.lineAt.Len() != int(p.cap)+1 {
		return fmt.Errorf("recency: capacity %d with %d words, %d nodes and %d slot entries", p.cap, len(p.words), len(p.nodes), p.lineAt.Len())
	}
	st := p.set
	if slot.Len() != int(st.lines) || !slot.Matches(capFor(st.lines)) || !st.lineAt.Matches(st.lines-1) {
		return fmt.Errorf("recency: set of %d lines has a %d-entry slot table (high half: %v) and a line table (high half: %v)",
			st.lines, slot.Len(), slot.hi != nil, st.lineAt.hi != nil)
	}
	if err := p.placed(); err != nil {
		return err
	}
	if !paged(st.words, 8) || !paged(st.nodes, 4) || !paged(st.lineAt.lo, 2) || st.lineAt.hi != nil && !paged(st.lineAt.hi, 2) {
		return fmt.Errorf("recency: set arrays of %d words, %d nodes and %d slot entries have capacities %d, %d and %d (high half %d)",
			len(st.words), len(st.nodes), st.lineAt.Len(), cap(st.words), cap(st.nodes), cap(st.lineAt.lo), cap(st.lineAt.hi))
	}
	if p.next < 1 || p.next > p.cap+1 || p.group < 1 || p.group > p.next {
		return fmt.Errorf("recency: next slot %d, group %d out of range for capacity %d", p.next, p.group, p.cap)
	}
	// count[i] is the number of live slots in words 1..i.
	count := make([]int32, nw+1)
	for s := int32(1); s <= int32(64*nw); s++ {
		if !p.holds(s) {
			continue
		}
		if s >= p.next {
			return fmt.Errorf("recency: slot %d of capacity %d is live past the next slot %d", s, p.cap, p.next)
		}
		l := p.lineAt.At(s)
		count[(s-1)>>6+1]++
		if l < 0 || int(l) >= slot.Len() || slot.At(l) != s || claimed[l] {
			return fmt.Errorf("recency: slot %d holds line %d, whose slot is not (only) that one", s, l)
		}
		claimed[l] = true
	}
	for i := 1; i <= nw; i++ {
		count[i] += count[i-1]
		if want := count[i] - count[i&(i-1)]; p.nodes[i] != want {
			return fmt.Errorf("recency: Fenwick node %d = %d, live slots in its words %d", i, p.nodes[i], want)
		}
	}
	if live := count[nw]; p.live != live {
		return fmt.Errorf("recency: live count %d, live slots %d", p.live, live)
	}
	return nil
}

// placed checks that p is one of its set's orders and that each of its
// segments starts in the set's array where the segments of the orders before
// it end.
func (p *Index) placed() error {
	var w, l int
	for i := range p.set.orders {
		q := &p.set.orders[i]
		if q != p {
			w, l = w+len(q.words), l+q.lineAt.Len()
			continue
		}
		if !at(p.words, p.set.words, w) || !at(p.nodes, p.set.nodes, w+i) || !p.lineAt.at(&p.set.lineAt, l) {
			return fmt.Errorf("recency: order %d's segments are not at words %d, nodes %d and slots %d of its set", i, w, w+i, l)
		}
		return nil
	}
	return fmt.Errorf("recency: order is not one of its set's %d", len(p.set.orders))
}

// paged reports whether a set array of elements of size bytes has the
// capacity relayout gives it.
func paged[T any](a []T, size int32) bool { return cap(a) == int(pageCap(int32(len(a)), size)) }

// at reports whether seg is the non-empty stretch of all starting at off.
func at[T any](seg, all []T, off int) bool {
	return len(seg) > 0 && off+len(seg) <= len(all) && &seg[0] == &all[off]
}
