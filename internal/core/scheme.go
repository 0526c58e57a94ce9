// Package core contains the paper's primary contribution: the Futility
// Scaling replacement-based partitioning schemes (§IV analytical form, §V
// feedback-based hardware design) and the partitioned-cache controller that
// composes a cache array (internal/cachearray), a futility ranking scheme
// (internal/futility) and a partitioning scheme into the three-component
// cache model of §III-A.
package core

// Candidate describes one replacement candidate presented to a scheme.
type Candidate struct {
	// Line is the array line index.
	Line int
	// Part is the partition currently owning the line.
	Part int
	// Futility is the decision ranker's normalized futility in (0,1].
	Futility float64
	// Raw is the decision ranker's raw futility measure (e.g. the 8-bit
	// timestamp distance); larger is more useless within a partition.
	Raw uint64
}

// Decision is a scheme's replacement decision.
type Decision struct {
	// Victim indexes into the candidate slice; that line is evicted.
	Victim int
	// Demote lists candidate indices whose lines move to partition
	// DemoteTo without leaving the cache (Vantage-style demotions).
	Demote []int
	// DemoteTo is the partition receiving demoted lines.
	DemoteTo int
	// Forced marks an eviction the scheme was compelled to take against its
	// policy (e.g. Vantage evicting from the managed region); counted in
	// statistics.
	Forced bool
}

// Scheme decides victims so as to enforce partition sizes (§III-A: a
// partitioning scheme picks a victim from the candidates and the partition
// sizes). Implementations must be deterministic given their construction
// seed.
//
// The controller owns every per-partition count. It calls Bind once before
// use, handing the scheme live views of the actual sizes (updated as lines
// move) and the target sizes (updated by Cache.SetTargets). A scheme that
// also keeps traffic registers implements Counter.
type Scheme interface {
	// Bind attaches the live actual-size and target-size slices, one entry
	// per partition each. The scheme must treat both as read-only.
	Bind(actual, targets []int)
	// Decide selects a victim among cands for an insertion into insertPart.
	// cands is non-empty and every candidate line is valid. Decide runs on
	// every miss and must not heap-allocate; a returned Decision.Demote
	// slice must be a retained buffer owned by the scheme.
	//fs:allocfree
	Decide(cands []Candidate, insertPart int) Decision
}

// Counter is a Scheme with traffic registers: Algorithm 2's insertion and
// eviction counters (FSFeedback) or PriSM's insertion window. New detects
// it; the controller then reports every completed insertion and eviction,
// and a demotion as both (Cache.demote).
type Counter interface {
	// OnInsert observes a completed insertion into part.
	//fs:allocfree
	OnInsert(part int)
	// OnEviction observes a completed eviction from part.
	//fs:allocfree
	OnEviction(part int)
}

// FullSelector marks a scheme whose Decide, on any candidate list, evicts the
// most futile candidate of whichever partition it settles on. The controller
// relies on that twice:
//
//   - on a fully-associative array it hands Decide only the most useless line
//     of each non-empty partition (Cache.chooseFull), O(parts) instead of a
//     candidate per line;
//   - under the exact LRU ranker it ranks only each partition's least
//     recent candidate and leaves Futility and Raw zero — below any real
//     value — on the others, which keep their places in the list
//     (Cache.choose).
//
// A scheme that reads the futility of a partition's other candidates
// (Vantage demotes every candidate past its aperture) must not be one.
type FullSelector interface {
	// EvictsPartitionWorst is never called; it declares the property.
	EvictsPartitionWorst()
}
