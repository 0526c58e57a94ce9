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

// Scheme decides victims so as to enforce partition sizes. Implementations
// must be deterministic given their construction seed.
//
// The controller calls Bind once before use, handing the scheme a live view
// of actual partition sizes (updated by the controller as lines move), then
// SetTargets whenever the allocation policy changes targets.
type Scheme interface {
	// Bind attaches the live actual-size slice (one entry per partition).
	// The scheme must treat it as read-only.
	Bind(actual []int)
	// SetTargets installs target sizes in lines (one entry per partition).
	// The scheme must copy or retain the slice as read-only.
	SetTargets(targets []int)
	// Decide selects a victim among cands for an insertion into insertPart.
	// cands is non-empty and every candidate line is valid. Decide runs on
	// every miss and must not heap-allocate; a returned Decision.Demote
	// slice must be a retained buffer owned by the scheme.
	//fs:allocfree
	Decide(cands []Candidate, insertPart int) Decision
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
//   - under the exact LRU ranker, with no observer or filter installed, it
//     ranks only each partition's least recent candidate and leaves Futility
//     and Raw zero — below any real value — on the others, which keep their
//     places in the list (Cache.choose).
//
// A scheme that reads the futility of a partition's other candidates
// (Vantage demotes every candidate past its aperture) must not be one.
type FullSelector interface {
	// EvictsPartitionWorst is never called; it declares the property.
	EvictsPartitionWorst()
}

// rawDecider marks a scheme whose Decide reads only a candidate's Line, Part
// and Raw, never its Futility, so the controller may leave Futility zero when
// nothing else reads it either (see Cache.rawOnly). Only FSFeedback is one.
type rawDecider interface {
	decidesOnRawOnly()
}
