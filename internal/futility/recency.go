package futility

import (
	"fmt"

	"fscache/internal/recency"
	"fscache/internal/stats"
)

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
// Each partition is one order of a recency.Index set (recency.New), so all
// partitions' recency storage is one bitmap, one Fenwick array and one slot
// → line table whatever the partition count; a line's whole state is its
// slot, 2 bytes below 43,627 lines and 4 from there (recency.NewSlots).
type ExactLRU struct {
	parts []recency.Index
	// slot is each line's slot in its partition's index; 0 is untracked.
	slot recency.Table[uint16]
}

// NewExactLRU returns an exact LRU ranker.
func NewExactLRU(lines, parts int) *ExactLRU {
	if lines <= 0 || parts <= 0 {
		panic("futility: lines and parts must be positive")
	}
	if lines >= 1<<28 {
		// The index compares its capacity with 4× its population in int32.
		panic("futility: too many lines for 32-bit recency slots")
	}
	return &ExactLRU{
		parts: recency.New(parts, int32(lines)),
		slot:  recency.NewSlots(int32(lines)),
	}
}

// OnInsert implements Ranker.
//
//fs:allocfree
func (r *ExactLRU) OnInsert(line, part int, ctx Context) {
	if r.slot.At(int32(line)) != 0 {
		panic("futility: OnInsert of tracked line")
	}
	p := &r.parts[part]
	if last := p.LastSeq(); ctx.Seq < last {
		panicSeqDecreased(part, ctx.Seq, last)
	}
	p.Insert(int32(line), ctx.Seq, &r.slot)
}

// OnHit implements Ranker.
//
//fs:allocfree
func (r *ExactLRU) OnHit(line, part int, ctx Context) {
	if r.slot.At(int32(line)) == 0 {
		panic("futility: OnHit of untracked line")
	}
	p := &r.parts[part]
	if last := p.LastSeq(); ctx.Seq < last {
		panicSeqDecreased(part, ctx.Seq, last)
	}
	p.Hit(int32(line), ctx.Seq, &r.slot)
}

// OnEvict implements Ranker.
//
//fs:allocfree
func (r *ExactLRU) OnEvict(line, part int) {
	if r.slot.At(int32(line)) == 0 {
		panic("futility: OnEvict of untracked line")
	}
	r.parts[part].Evict(int32(line), &r.slot)
}

// OnMove implements Ranker: the slot, and with it the rank, is unchanged.
//
//fs:allocfree
func (r *ExactLRU) OnMove(from, to, part int) {
	if r.slot.At(int32(from)) == 0 {
		panic("futility: OnMove of untracked line")
	}
	if r.slot.At(int32(to)) != 0 {
		// Destination metadata is about to be overwritten by the controller
		// applying the same move; it must already have been evicted/moved.
		panic("futility: OnMove onto a tracked line")
	}
	r.parts[part].Move(int32(from), int32(to), &r.slot)
}

// FutilityRaw implements Ranker with one prefix sum: the line's rank is one
// plus the live slots above its own, futility is rank / partition size, and
// Raw is the futility scaled to 32 bits, so raw ordering matches normalized
// ordering.
//
//fs:allocfree
func (r *ExactLRU) FutilityRaw(line, part int) (float64, uint64) {
	stats.CountQuery()
	s := r.slot.At(int32(line))
	if s == 0 {
		panic("futility: Futility of untracked line")
	}
	p := &r.parts[part]
	f := float64(p.Rank(s)) / float64(p.Live())
	return f, uint64(f * (1 << 32))
}

// Older reports whether line a was used less recently than line b, both
// tracked in the same partition: there slot order is rank order, so the more
// useless of two lines is known without computing either rank.
//
//fs:allocfree
func (r *ExactLRU) Older(a, b int) bool { return r.slot.At(int32(a)) < r.slot.At(int32(b)) }

// Size implements Ranker.
//
//fs:allocfree
func (r *ExactLRU) Size(part int) int { return int(r.parts[part].Live()) }

// Worst implements WorstTracker in O(log cap).
//
//fs:allocfree
func (r *ExactLRU) Worst(part int) int {
	return int(r.parts[part].Worst())
}

// panicSeqDecreased keeps the formatting out of the per-access methods.
//
//go:noinline
func panicSeqDecreased(part int, seq, last uint64) {
	panic("futility: " + fmt.Sprintf("Seq %d after %d in partition %d: Context.Seq must not decrease", seq, last, part))
}
