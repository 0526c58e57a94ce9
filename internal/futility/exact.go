package futility

import (
	"fscache/internal/ost"
	"fscache/internal/stats"
	"fscache/internal/xrand"
)

// ostRanker is the shared machinery of the exact rankers: one order-
// statistic tree per partition, ordered so that ascending key order means
// increasingly useless. Normalized futility is then rank/M and the worst
// line is the tree maximum.
type ostRanker struct {
	trees []*ost.Tree
	// keys is each line's current tree key. Its Tie is a stable ticket drawn
	// at insert from nextTicket (so never 0) and kept across hits and moves,
	// so relocating a line never reorders it among equals; a zero Tie marks
	// an untracked line.
	keys       []ost.Key
	nextTicket uint64
}

func newOSTRanker(lines, parts int, seed uint64) *ostRanker {
	if lines <= 0 || parts <= 0 {
		panic("futility: lines and parts must be positive")
	}
	trees := make([]*ost.Tree, parts)
	for i := range trees {
		trees[i] = ost.New(xrand.Mix64(seed ^ uint64(i+0x51ed)))
	}
	return &ostRanker{
		trees: trees,
		keys:  make([]ost.Key, lines),
	}
}

// present reports whether line is tracked.
//
//fs:allocfree
func (r *ostRanker) present(line int) bool { return r.keys[line].Tie != 0 }

// set installs or refreshes line's key.
func (r *ostRanker) set(line, part int, primary uint64) {
	tie := r.keys[line].Tie
	if tie != 0 {
		r.trees[part].Delete(r.keys[line])
	} else {
		r.nextTicket++
		tie = r.nextTicket
	}
	k := ost.Key{Primary: primary, Tie: tie}
	r.trees[part].Insert(k, int64(line))
	r.keys[line] = k
}

// OnEvict implements Ranker.
//
//fs:allocfree
func (r *ostRanker) OnEvict(line, part int) {
	if !r.present(line) {
		panic("futility: OnEvict of untracked line")
	}
	r.trees[part].Delete(r.keys[line])
	r.keys[line] = ost.Key{}
}

// OnMove implements Ranker.
//
//fs:allocfree
func (r *ostRanker) OnMove(from, to, part int) {
	if !r.present(from) {
		panic("futility: OnMove of untracked line")
	}
	if r.present(to) {
		// Destination metadata is about to be overwritten by the controller
		// applying the same move; it must already have been evicted/moved.
		panic("futility: OnMove onto a tracked line")
	}
	k := r.keys[from]
	r.trees[part].Delete(k)
	r.keys[from] = ost.Key{}
	// The key (including its stable ticket tiebreak) is unchanged; only the
	// stored line value is updated, so ordering is exactly preserved.
	r.trees[part].Insert(k, int64(to))
	r.keys[to] = k
}

// FutilityRaw implements Ranker with one rank traversal: futility is
// ascending rank / partition size, and Raw is the futility scaled to 32 bits,
// so raw ordering matches normalized ordering.
//
//fs:allocfree
func (r *ostRanker) FutilityRaw(line, part int) (float64, uint64) {
	stats.CountQuery()
	if !r.present(line) {
		panic("futility: Futility of untracked line")
	}
	rank, ok := r.trees[part].Rank(r.keys[line])
	if !ok {
		panic("futility: line key missing from partition tree")
	}
	f := float64(rank) / float64(r.trees[part].Len())
	return f, uint64(f * (1 << 32))
}

// Size implements Ranker.
//
//fs:allocfree
func (r *ostRanker) Size(part int) int { return r.trees[part].Len() }

// Worst implements WorstTracker.
//
//fs:allocfree
func (r *ostRanker) Worst(part int) int {
	if r.trees[part].Len() == 0 {
		return -1
	}
	_, line := r.trees[part].Max()
	return int(line)
}

// ExactLFU ranks lines by access frequency: the least frequently used line
// is most useless. A line's key is the complement of its access count, so the
// key is the count's only copy; ties are broken by the key's insert ticket
// (stable, arbitrary), preserving a strict order.
type ExactLFU struct {
	*ostRanker
}

// NewExactLFU returns an exact LFU ranker.
func NewExactLFU(lines, parts int, seed uint64) *ExactLFU {
	return &ExactLFU{newOSTRanker(lines, parts, seed)}
}

// OnInsert implements Ranker.
//
//fs:allocfree
func (r *ExactLFU) OnInsert(line, part int, ctx Context) {
	if r.present(line) {
		panic("futility: OnInsert of tracked line")
	}
	r.set(line, part, ^uint64(1))
}

// OnHit implements Ranker: ^freq - 1 is ^(freq+1).
//
//fs:allocfree
func (r *ExactLFU) OnHit(line, part int, ctx Context) {
	r.set(line, part, r.keys[line].Primary-1)
}

// ExactOPT is Belady's clairvoyant ranking: the line whose next reference
// lies farthest in the future is most useless; lines never referenced again
// (NextUse = trace.NoNextUse) rank above everything.
type ExactOPT struct {
	*ostRanker
}

// NewExactOPT returns an exact OPT ranker. Callers must supply Context.
// NextUse on every insert and hit (precomputed from the trace).
func NewExactOPT(lines, parts int, seed uint64) *ExactOPT {
	return &ExactOPT{newOSTRanker(lines, parts, seed)}
}

// OnInsert implements Ranker.
//
//fs:allocfree
func (r *ExactOPT) OnInsert(line, part int, ctx Context) {
	if r.present(line) {
		panic("futility: OnInsert of tracked line")
	}
	r.set(line, part, uint64(ctx.NextUse))
}

// OnHit implements Ranker.
//
//fs:allocfree
func (r *ExactOPT) OnHit(line, part int, ctx Context) {
	r.set(line, part, uint64(ctx.NextUse))
}
