// Package futility implements the paper's futility-ranking schemes (§III-A):
// a strict total order of the uselessness of cache lines within each
// partition, normalized so that the line ranked r-th of M has futility
// f = r/M ∈ (0,1], larger meaning more useless.
//
// A Ranker answers one question about a resident line, FutilityRaw: its
// normalized futility together with the scheme's raw measure, the pair the
// replacement pipeline records for every candidate.
//
// Exact rankers answer true normalized ranks — LRU from a per-partition
// Fenwick recency index, LFU and OPT from an order-statistic tree per
// partition; they serve both as decision rankers for the analytical schemes
// and as measurement references for AEF statistics.
// CoarseTS is the hardware design of §V: an 8-bit per-partition timestamp
// whose distance to a line's tag estimates recency; its raw measure is that
// distance, which the feedback FS controller scales by shifts, and its
// futility a self-calibrating estimate for schemes that need quantiles.
package futility

import "fmt"

// Context carries per-access information a ranker may need.
type Context struct {
	// Seq is the access sequence number. It never decreases from one call
	// to the next within a partition (ExactLRU panics if it does); accesses
	// that share a Seq are ordered as ExactLRU documents.
	Seq uint64
	// NextUse is the trace index of the next access to the same line
	// (trace.NoNextUse if never), used by the OPT ranker.
	NextUse int64
}

// Ranker maintains futility state for resident lines, keyed by line index.
// The controller guarantees: OnInsert for a line precedes any OnHit/OnEvict;
// OnEvict removes it; OnMove relocates state between line indices (zcache).
//
// Every per-access method is declared //fs:allocfree: the replacement
// pipeline invokes them on every hit and miss, and the PR-3 zero-allocation
// contract holds only if implementations never touch the heap in steady
// state. The fslint allocfree analyzer verifies each annotated
// implementation and treats these interface calls as trusted boundaries.
type Ranker interface {
	// OnInsert registers line as resident in partition part.
	//fs:allocfree
	OnInsert(line, part int, ctx Context)
	// OnHit refreshes the line's futility on an access hit.
	//fs:allocfree
	OnHit(line, part int, ctx Context)
	// OnEvict removes the line's state.
	//fs:allocfree
	OnEvict(line, part int)
	// OnMove transfers the state of line from to line to (same partition).
	//fs:allocfree
	OnMove(from, to, part int)
	// FutilityRaw returns a resident line's normalized futility, in (0,1],
	// and the scheme's raw futility measure, larger being more useless. Raw
	// values are only comparable within one partition unless the scheme
	// documents otherwise.
	//fs:allocfree
	FutilityRaw(line, part int) (float64, uint64)
	// Size returns the number of resident lines tracked in part.
	//fs:allocfree
	Size(part int) int
}

// SizeBinder is a ranker that reads its partitions' sizes, read-only, instead
// of counting them: core.New binds its own once, as its Scheme's Bind does.
type SizeBinder interface {
	BindSizes(sizes []int)
}

// FastRanker is Ranker's former name, kept while the bench module asserts it.
type FastRanker = Ranker

// WorstTracker is implemented by rankers that can report the most useless
// line of a partition in O(log M); the FullAssoc ideal scheme requires it.
type WorstTracker interface {
	// Worst returns the line with maximal futility in part, or -1 if empty.
	//fs:allocfree
	Worst(part int) int
}

// Kind names a ranking scheme for configuration.
type Kind int

// Ranking scheme kinds.
const (
	// LRU ranks by recency: least recently used is most useless.
	LRU Kind = iota
	// LFU ranks by access frequency: least frequently used is most useless.
	LFU
	// OPT is Belady's clairvoyant ranking: the line whose next use is
	// farthest in the future is most useless.
	OPT
	// CoarseLRU is the practical 8-bit timestamp LRU of §V.
	CoarseLRU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case OPT:
		return "opt"
	case CoarseLRU:
		return "coarse-lru"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// New builds a ranker of the given kind for a cache of lines lines and
// parts partitions. seed feeds the tree-backed rankers' treap priorities.
func New(kind Kind, lines, parts int, seed uint64) Ranker {
	switch kind {
	case LRU:
		return NewExactLRU(lines, parts)
	case LFU:
		return NewExactLFU(lines, parts, seed)
	case OPT:
		return NewExactOPT(lines, parts, seed)
	case CoarseLRU:
		return NewCoarseTS(lines, parts)
	default:
		panic("futility: unknown ranker kind")
	}
}

// Reference returns the exact measurement ranker paired with a decision
// ranker of kind k: AEF must always be measured against exact ranks even
// when decisions use 8-bit timestamps (CoarseLRU → exact LRU).
func Reference(k Kind) Kind {
	if k == CoarseLRU {
		return LRU
	}
	return k
}
