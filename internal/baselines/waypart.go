package baselines

import (
	"slices"

	"fscache/internal/core"
)

// WayPart is classic way-partitioning (column caching), the placement-based
// scheme the paper contrasts replacement-based schemes against (§II-B):
// each partition statically owns a subset of the ways of every set, and a
// partition's insertions may evict only lines in its own ways. Its two
// structural problems — the reason the paper dismisses placement schemes —
// fall out directly:
//
//   - coarse granularity: sizes quantize to whole ways (total/W steps), so
//     fine-grained targets cannot be honored and at most W partitions fit;
//   - associativity loss: a partition with k ways has only k replacement
//     candidates, collapsing AEF exactly as §III-C describes.
//
// WayPart must be paired with a set-associative array: it interprets the
// i-th replacement candidate as way i of the accessed set (which is how
// cachearray.SetAssoc orders candidates).
type WayPart struct {
	ways  int
	owner []int // way → partition
	// targets is the controller's vector (read-only); apportioned is the
	// copy owner was last apportioned from, and quota and remainder are
	// apportion's scratch. Until Bind, targets is apportioned itself.
	targets, apportioned, quota []int
	remainder                   []float64
}

// NewWayPart builds a way-partitioning scheme for parts partitions over a
// ways-way set-associative cache. parts must not exceed ways.
func NewWayPart(parts, ways int) *WayPart {
	if parts <= 0 {
		panic("baselines: WayPart needs at least one partition")
	}
	if ways <= 0 || parts > ways {
		panic("baselines: WayPart needs parts <= ways")
	}
	w := &WayPart{
		ways:        ways,
		owner:       make([]int, ways),
		apportioned: make([]int, parts),
		quota:       make([]int, parts),
		remainder:   make([]float64, parts),
	}
	w.targets = w.apportioned
	// Default: round-robin assignment until targets arrive.
	for i := range w.owner {
		w.owner[i] = i % parts
	}
	return w
}

// Bind implements core.Scheme.
func (w *WayPart) Bind(actual, targets []int) {
	checkBind(actual, targets, len(w.apportioned))
	w.targets = targets
}

// sync re-apportions the ways when the controller's targets differ from the
// ones they were last apportioned from.
func (w *WayPart) sync() {
	if !slices.Equal(w.targets, w.apportioned) {
		copy(w.apportioned, w.targets)
		w.apportion()
	}
}

// apportion assigns ways to partitions by the largest-remainder method,
// with every partition that has a non-zero target receiving at least one way
// (there is no finer granularity — that is the point). All-zero targets
// leave the assignment as it was.
func (w *WayPart) apportion() {
	targets, quota, remainder := w.apportioned, w.quota, w.remainder
	total := 0
	for _, t := range targets {
		total += t
	}
	if total == 0 {
		return
	}
	parts := len(targets)
	assigned := 0
	for p, t := range targets {
		exact := float64(t) * float64(w.ways) / float64(total)
		quota[p] = int(exact)
		remainder[p] = exact - float64(quota[p])
		if quota[p] == 0 && t > 0 {
			quota[p] = 1
			remainder[p] = 0
		}
		assigned += quota[p]
	}
	// Distribute leftover ways by largest remainder; reclaim overshoot from
	// the largest quotas.
	for assigned < w.ways {
		best, bestR := -1, -1.0
		for p := range remainder {
			if remainder[p] > bestR {
				bestR = remainder[p]
				best = p
			}
		}
		quota[best]++
		remainder[best] = -1
		assigned++
	}
	for assigned > w.ways {
		big, bigQ := -1, 1
		for p := range quota {
			if quota[p] > bigQ {
				bigQ = quota[p]
				big = p
			}
		}
		if big < 0 {
			break
		}
		quota[big]--
		assigned--
	}
	way := 0
	for p := 0; p < parts && way < w.ways; p++ {
		for k := 0; k < quota[p] && way < w.ways; k++ {
			w.owner[way] = p
			way++
		}
	}
	for ; way < w.ways; way++ {
		w.owner[way] = parts - 1
	}
}

// Decide implements core.Scheme: evict the most useless line among the
// inserting partition's own ways. Candidate index i is way i of the set.
func (w *WayPart) Decide(cands []core.Candidate, insertPart int) core.Decision {
	if len(cands) != w.ways {
		panic("baselines: WayPart needs a set-associative candidate list (one per way)")
	}
	w.sync()
	best, bestF := -1, -1.0
	for i := range cands {
		if w.owner[i] != insertPart {
			continue
		}
		// Lines found in a reassigned way may belong to another partition;
		// they are evicted like any other resident of the way.
		if cands[i].Futility > bestF {
			bestF = cands[i].Futility
			best = i
		}
	}
	if best < 0 {
		// The partition owns no way (zero target): fall back to the least
		// useful line overall rather than deadlock.
		for i := range cands {
			if cands[i].Futility > bestF {
				bestF = cands[i].Futility
				best = i
			}
		}
	}
	return core.Decision{Victim: best}
}
