package futility

import "fscache/internal/ost"

// SLRU is segmented LRU: each partition's lines are split into a probation
// segment (entered on insertion) and a protected segment (entered on the
// first hit, capped at a fraction of the partition). Probation lines are
// always more useless than protected ones; within a segment recency
// decides. Scan-resistant: a streaming burst churns only probation and
// never displaces the protected working set.
//
// The paper's scheme is "conceptually independent of a futility ranking
// scheme" (§VI); SLRU is included to exercise that claim with a ranking
// family beyond LRU/LFU/OPT (see the core tests driving FS over SLRU).
type SLRU struct {
	*ostRanker
	// ProtectedFrac caps the protected segment at this fraction of the
	// partition's resident lines.
	protectedFrac  float64
	protected      []bool // per line
	protectedCount []int  // per partition
}

// The segment occupies the top bit of the primary key so that every
// probation line orders after (more useless than) every protected line.
const slruProbationBit = uint64(1) << 63

// NewSLRU builds a segmented-LRU ranker with the given protected-segment
// fraction (0 < frac < 1; 0.8 is a common choice).
func NewSLRU(lines, parts int, protectedFrac float64, seed uint64) *SLRU {
	if protectedFrac <= 0 || protectedFrac >= 1 {
		panic("futility: SLRU protected fraction must be in (0,1)")
	}
	return &SLRU{
		ostRanker:      newOSTRanker("slru", lines, parts, seed),
		protectedFrac:  protectedFrac,
		protected:      make([]bool, lines),
		protectedCount: make([]int, parts),
	}
}

// key composes the segment bit with recency (older → larger key).
func slruKey(probation bool, seq uint64) uint64 {
	k := ^seq &^ slruProbationBit
	if probation {
		k |= slruProbationBit
	}
	return k
}

// OnInsert implements Ranker: new lines enter probation.
//
//fs:allocfree
func (s *SLRU) OnInsert(line, part int, ctx Context) {
	if s.present(line) {
		panic("futility: OnInsert of tracked line")
	}
	s.protected[line] = false
	s.set(line, part, slruKey(true, ctx.Seq))
}

// OnHit implements Ranker: a probation hit promotes the line to protected,
// demoting the protected LRU back to probation if the segment is over its
// cap; a protected hit refreshes recency.
//
//fs:allocfree
func (s *SLRU) OnHit(line, part int, ctx Context) {
	if !s.present(line) {
		panic("futility: OnHit of untracked line")
	}
	if s.protected[line] {
		s.set(line, part, slruKey(false, ctx.Seq))
		return
	}
	s.protected[line] = true
	s.protectedCount[part]++
	s.set(line, part, slruKey(false, ctx.Seq))
	limit := int(s.protectedFrac * float64(s.Size(part)))
	if limit < 1 {
		limit = 1
	}
	if s.protectedCount[part] <= limit {
		return
	}
	// Demote the protected LRU: the largest key below the probation bit.
	probe := ost.Key{Primary: slruProbationBit, Tie: 0}
	rank, _ := s.trees[part].Rank(probe)
	if rank <= 1 {
		return // no protected line found (cannot happen with count > 0)
	}
	k, victim := s.trees[part].Select(rank - 1)
	if k.Primary&slruProbationBit != 0 {
		return
	}
	v := int(victim)
	s.protected[v] = false
	s.protectedCount[part]--
	// Re-key into probation, keeping its recency bits.
	s.trees[part].Delete(k)
	nk := ost.Key{Primary: k.Primary | slruProbationBit, Tie: k.Tie}
	s.trees[part].Insert(nk, victim)
	s.keys[v] = nk
}

// OnEvict implements Ranker.
//
//fs:allocfree
func (s *SLRU) OnEvict(line, part int) {
	if s.present(line) && s.protected[line] {
		s.protectedCount[part]--
		s.protected[line] = false
	}
	s.ostRanker.OnEvict(line, part)
}

// OnMove implements Ranker.
//
//fs:allocfree
func (s *SLRU) OnMove(from, to, part int) {
	s.ostRanker.OnMove(from, to, part)
	s.protected[to] = s.protected[from]
	s.protected[from] = false
}

// ProtectedCount reports the protected-segment population of a partition
// (for tests).
func (s *SLRU) ProtectedCount(part int) int { return s.protectedCount[part] }

var _ Ranker = (*SLRU)(nil)
var _ WorstTracker = (*SLRU)(nil)
