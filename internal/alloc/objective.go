package alloc

import "fmt"

// Curves is one epoch's measurement snapshot, the input every objective
// allocates from. Sizes are expressed in chunks — the allocator's
// granularity — so objectives never deal in raw lines.
type Curves struct {
	// Chunk is the chunk size in lines.
	Chunk int
	// NChunk is the number of chunks covering the allocatable capacity.
	NChunk int
	// Hits[p][c] is partition p's estimated decayed hit count with c chunks
	// (c = 0..NChunk, Hits[p][0] == 0, non-decreasing in c).
	Hits [][]uint64
	// Accesses[p] is partition p's estimated decayed access count.
	Accesses []uint64
	// Live[p] reports whether partition p saw traffic recently. Dead
	// partitions are allocated zero so their lines wash out of the cache.
	Live []bool
}

// MissRatio estimates partition p's miss ratio with c chunks.
func (cv *Curves) MissRatio(p, c int) float64 {
	if cv.Accesses[p] == 0 {
		return 1
	}
	return float64(cv.Accesses[p]-cv.Hits[p][c]) / float64(cv.Accesses[p])
}

// Divergence measures how far the workload moved between two epoch
// snapshots: the maximum over partitions of the mean absolute difference of
// the partitions' miss-ratio curves on the chunk grid. A partition live in
// only one snapshot counts as a full-scale (1.0) divergence. A nil previous
// snapshot (the first epoch) also reports 1.0. The allocator labels a
// decision as drift when this exceeds driftThreshold, and the PhaseAdaptive
// objective holds targets while it stays below.
func Divergence(prev, cur *Curves) float64 {
	if prev == nil {
		return 1
	}
	worst := 0.0
	for p := range cur.Live {
		if !cur.Live[p] && !prev.Live[p] {
			continue
		}
		if cur.Live[p] != prev.Live[p] {
			worst = 1
			continue
		}
		sum := 0.0
		for c := 1; c <= cur.NChunk; c++ {
			d := cur.MissRatio(p, c) - prev.MissRatio(p, c)
			if d < 0 {
				d = -d
			}
			sum += d
		}
		if m := sum / float64(cur.NChunk); m > worst {
			worst = m
		}
	}
	return worst
}

// driftThreshold is the Divergence above which the workload counts as having
// moved: the decision log's Drift flag and PhaseAdaptive's recompute trigger.
const driftThreshold = 0.02

// Objective turns an epoch's curves into a chunk allocation.
//
// Contract: the returned slice has one entry per partition; dead partitions
// get zero, live partitions get at least minChunks[p], and the total equals
// cv.NChunk whenever any partition is live. Objectives must be
// deterministic functions of their call sequence (PhaseAdaptive keeps state
// across calls; that state is itself a pure function of prior inputs).
type Objective interface {
	Allocate(cv *Curves, minChunks []int) []int
}

// MaxHits maximizes estimated aggregate hits: UCP-style greedy lookahead
// that repeatedly grants the span of chunks with the greatest marginal hit
// rate. Lookahead (best gain over any span, not just the next chunk) walks
// through plateaus in non-concave curves that one-chunk greedy would stall
// on.
type MaxHits struct{}

// Allocate implements Objective.
func (MaxHits) Allocate(cv *Curves, minChunks []int) []int {
	out := baseAlloc(cv, minChunks)
	greedyFill(cv, out, cv.NChunk-sumInts(out))
	return out
}

// MaxMin maximizes the minimum per-partition hit ratio: progressive
// filling that always grants the next chunk to the worst-off live partition
// that more capacity can still help. Partitions whose curves are exhausted
// (streaming tenants, flat curves) stop competing; leftover capacity falls
// back to marginal utility so nothing strands.
type MaxMin struct{}

// Allocate implements Objective.
func (MaxMin) Allocate(cv *Curves, minChunks []int) []int {
	out := baseAlloc(cv, minChunks)
	remaining := cv.NChunk - sumInts(out)
	for remaining > 0 {
		best := -1
		bestMR := 0.0
		for p := range out {
			if !cv.Live[p] || out[p] >= cv.NChunk {
				continue
			}
			// Skip partitions more capacity cannot help: no hit gain left
			// anywhere above the current allocation.
			if cv.Hits[p][cv.NChunk] == cv.Hits[p][out[p]] {
				continue
			}
			if mr := cv.MissRatio(p, out[p]); best < 0 || mr > bestMR {
				best, bestMR = p, mr
			}
		}
		if best < 0 {
			break
		}
		out[best]++
		remaining--
	}
	// Everyone helpable is saturated; place the rest by marginal utility so
	// the allocation still sums to capacity.
	greedyFill(cv, out, remaining)
	return out
}

// QoS guarantees each partition a configured line count while it is live
// and hands the remainder out by marginal utility — the paper's
// guaranteed-subject + best-effort-background split, driven by online
// curves instead of offline policy.
type QoS struct {
	// GuaranteeLines is the per-partition guaranteed capacity (lines);
	// zero entries are pure best-effort. Must have one entry per partition.
	GuaranteeLines []int
}

// Allocate implements Objective.
func (q *QoS) Allocate(cv *Curves, minChunks []int) []int {
	if len(q.GuaranteeLines) != len(cv.Live) {
		panic("alloc: QoS guarantee vector length mismatch")
	}
	floors := make([]int, len(minChunks))
	need := 0
	for p := range floors {
		if !cv.Live[p] {
			continue
		}
		floors[p] = minChunks[p]
		if g := chunksFor(q.GuaranteeLines[p], cv.Chunk); g > floors[p] {
			floors[p] = g
		}
		need += floors[p]
	}
	if need > cv.NChunk {
		panicf("QoS guarantees need %d chunks, cache has %d", need, cv.NChunk)
	}
	out := baseAlloc(cv, floors)
	greedyFill(cv, out, cv.NChunk-sumInts(out))
	return out
}

// PhaseAdaptive is MaxHits with drift detection: targets are recomputed only
// when the miss-ratio curves have diverged from the baseline recorded at the
// last reallocation by driftThreshold or more (or when the live set or
// floors changed, which always forces a recompute). Between phases the
// previous allocation holds, so stable workloads see stable targets; slow
// cumulative drift still accumulates against the baseline and eventually
// triggers.
type PhaseAdaptive struct {
	base      *Curves
	baseAlloc []int
}

// Allocate implements Objective.
func (o *PhaseAdaptive) Allocate(cv *Curves, minChunks []int) []int {
	if o.baseAlloc != nil && Divergence(o.base, cv) < driftThreshold && holdValid(o.baseAlloc, cv, minChunks) {
		return append([]int(nil), o.baseAlloc...)
	}
	out := MaxHits{}.Allocate(cv, minChunks)
	o.base = snapshotCurves(cv)
	o.baseAlloc = append([]int(nil), out...)
	return out
}

// holdValid reports whether a held allocation still satisfies the current
// live set, floors and capacity.
func holdValid(alloc []int, cv *Curves, minChunks []int) bool {
	sum := 0
	for p, a := range alloc {
		if cv.Live[p] {
			if a < minChunks[p] {
				return false
			}
		} else if a != 0 {
			return false
		}
		sum += a
	}
	return sum == cv.NChunk
}

// snapshotCurves deep-copies a Curves so a held baseline survives the
// allocator reusing its buffers.
func snapshotCurves(cv *Curves) *Curves {
	out := &Curves{
		Chunk:    cv.Chunk,
		NChunk:   cv.NChunk,
		Hits:     make([][]uint64, len(cv.Hits)),
		Accesses: append([]uint64(nil), cv.Accesses...),
		Live:     append([]bool(nil), cv.Live...),
	}
	for p := range cv.Hits {
		out.Hits[p] = append([]uint64(nil), cv.Hits[p]...)
	}
	return out
}

// ByName returns a fresh objective for a CLI name: utility (max aggregate
// hits), maxmin (max-min fairness) or phase (drift-gated utility). The qos
// objective needs per-partition guarantees, so callers construct it
// directly (scenario specs derive it from guaranteed-class clients) and
// ByName rejects it.
func ByName(name string) (Objective, error) {
	switch name {
	case "utility":
		return MaxHits{}, nil
	case "maxmin":
		return MaxMin{}, nil
	case "phase":
		return &PhaseAdaptive{}, nil
	default:
		return nil, fmt.Errorf("alloc: unknown objective %q (want utility, maxmin or phase; qos needs -scenario)", name)
	}
}

// baseAlloc seeds an allocation at the floors: minChunks for live
// partitions, zero for dead ones.
func baseAlloc(cv *Curves, minChunks []int) []int {
	out := make([]int, len(cv.Live))
	for p := range out {
		if cv.Live[p] {
			out[p] = minChunks[p]
		}
	}
	return out
}

// greedyFill distributes remaining chunks by greatest marginal hit rate
// (lookahead over spans). When no positive gain remains anywhere it spreads
// the rest round-robin over live partitions so the allocation always sums
// to capacity. Ties break toward the lower partition index and the shorter
// span.
func greedyFill(cv *Curves, out []int, remaining int) {
	for remaining > 0 {
		bestP, bestSpan := -1, 0
		var bestGain uint64 // rate compared cross-multiplied: gain1*span2 > gain2*span1
		for p := range out {
			if !cv.Live[p] {
				continue
			}
			c := out[p]
			maxSpan := cv.NChunk - c
			if maxSpan > remaining {
				maxSpan = remaining
			}
			for s := 1; s <= maxSpan; s++ {
				gain := cv.Hits[p][c+s] - cv.Hits[p][c]
				if gain == 0 {
					continue
				}
				if bestP < 0 || gain*uint64(bestSpan) > bestGain*uint64(s) {
					bestP, bestSpan, bestGain = p, s, gain
				}
			}
		}
		if bestP < 0 {
			spreadEven(cv, out, remaining)
			return
		}
		out[bestP] += bestSpan
		remaining -= bestSpan
	}
}

// spreadEven hands n chunks round-robin to live partitions with headroom.
func spreadEven(cv *Curves, out []int, n int) {
	for n > 0 {
		gave := false
		for p := range out {
			if n == 0 {
				break
			}
			if cv.Live[p] && out[p] < cv.NChunk {
				out[p]++
				n--
				gave = true
			}
		}
		if !gave {
			panic("alloc: no live partition can absorb remaining capacity")
		}
	}
}

// chunksFor returns the chunks covering `lines` lines (ceiling).
func chunksFor(lines, chunk int) int {
	if lines <= 0 {
		return 0
	}
	return (lines + chunk - 1) / chunk
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
