// Package alloc closes the capacity-management loop from measurement to
// targets: spatially-hashed shadow-tag profilers, as deep as the allocation
// grid reads and no deeper, estimate each partition's miss-ratio curve
// online in bounded memory, and a periodic allocator recomputes
// per-partition line targets from those curves under a pluggable
// objective (max-aggregate-hits, max-min fairness, QoS guarantees, or
// phase-adaptive hold-until-drift). The objectives are also the offline
// allocator: the util experiment hands MaxHits curves from UMONs that saw
// whole recorded traces, while the Allocator samples the live access stream
// and reallocates every epoch, so the enforcement layers (the monolithic
// simulator and the striped engine's rebalancer) track workload phases
// instead of running on static targets.
//
// Everything in the package is deterministic: equal seeds and equal access
// sequences produce bit-identical curves, decisions and logs. Concurrency
// safety (for the serving/load paths) comes from one mutex around the
// sampled slow path; the per-access fast path is one hash.
package alloc

import (
	"fmt"
	"math/bits"

	"fscache/internal/recency"
	"fscache/internal/xrand"
)

// Profiler computes one partition's LRU miss-ratio curve with Mattson's stack
// algorithm: one pass over an access stream yields, for every cache size
// simultaneously, the miss ratio a fully-associative LRU cache of that size
// would achieve. The inclusion property behind it: under LRU, a reference
// with stack distance d (d − 1 distinct lines used since its line's last
// use) hits in every cache of at least d lines and misses in every smaller
// one. Stack distances come from a recency.Index over a bounded table of
// shadow tags: the distance of a reuse is its tag's recency rank.
//
// At sampleShift 0 every address is tracked and the histogram is exact up to
// maxTags lines: it predicts the simulator's fully-associative LRU
// reference for reference (TestPredictsFullyAssociativeLRU), and is the
// exact version of what the util experiment's UMON utility monitors
// estimate per set. Reuses at distances beyond maxTags count as far.
//
// Above shift 0 sampling is SHARDS-style: only addresses whose mixed hash
// falls in a 1/2^shift slice of hash space are tracked, and a sampled reuse
// at sampled stack distance d estimates a full-stream reuse at distance
// d·2^shift — the sampled subset is a uniformly spaced "spatial" subsample
// of the line population, so distances scale by the inverse sampling rate.
//
// Either way at most maxTags lines are tracked (the least recently used tag
// is reused when all are taken, exactly a maxTags-line shadow cache over the
// sample). Construction allocates per tag 8 B of addr, 8 B of hist, 2 B of
// slot and 4–8 B of table, whose ids are 16-bit (recency.Table) until they
// can pass 2^16: 4 B of slot from 43,627 tags, 8–16 B of table from 65,536.
// The recency index's slots, a little over 2 B each (4 from 65,537 tags),
// start at 64 and grow through relayouts with the tags in use until the
// profiler is full, where it holds 1.25–1.5 a tag (its last resize saw more
// than 5/6 of them in use); past one page each of its arrays grows in whole
// pages. The tags are the maxTags most recent sampled lines whatever maxTags
// is, so hist[:d] is the same at every maxTags ≥ d: a reader that stops at
// distance d needs no deeper profiler (the Allocator's depth rule, see New).
//
// Decay halves every histogram counter at each epoch boundary while keeping
// the shadow tags warm, so the curve is an exponentially weighted view of
// recent epochs — stale phases fade instead of anchoring the curve forever.
type Profiler struct {
	shift   uint
	mask    uint64
	salt    uint64
	maxTags int

	// idx orders the tags by recency; addr and slot (the index's slot table)
	// are indexed by tag. Tags 0..Live()−1 are the ones in use.
	idx  *recency.Index
	addr []uint64
	slot recency.Table[uint16]
	// table finds a tracked address's tag: open addressing over the power of
	// two ≥ 2·maxTags entries, each tag+1 (0 is empty) keyed by addr[tag]. An
	// address's home is the top bits of its sampling hash (the low shift bits
	// are zero when sampled); collisions probe linearly and a removal shifts
	// its chain back, so with no tombstones the table never fills or grows.
	table     recency.Table[uint16]
	homeShift uint

	// hist[d] counts sampled reuses at sampled stack distance d+1; the
	// estimated full-stream distance is (d+1)<<shift.
	hist []uint64
	// far counts sampled references with no tracked prior use: cold misses
	// plus reuses beyond the maxTags shadow depth.
	far uint64
	// sampled and offered count references since construction, decayed with
	// the histogram (sampled: tracked references; offered: all references
	// presented to Touch, sampled or not).
	sampled uint64
	offered uint64
}

// NewProfiler builds a profiler sampling 1/2^sampleShift of hash space and
// tracking at most maxTags sampled lines (resolving the curve up to
// maxTags<<sampleShift estimated lines). maxTags must be positive and below
// 2^28; sampleShift must be below 32. seed feeds the sampling salt only.
func NewProfiler(maxTags int, sampleShift uint, seed uint64) *Profiler {
	if maxTags <= 0 {
		panic("alloc: maxTags must be positive")
	}
	if maxTags >= 1<<28 {
		// The index compares its capacity with 4× its population in int32.
		panic("alloc: too many tags for 32-bit recency slots")
	}
	if sampleShift >= 32 {
		panic("alloc: sampleShift must be below 32")
	}
	tableBits := bits.Len(uint(2*maxTags - 1))
	return &Profiler{
		shift:     sampleShift,
		mask:      (uint64(1) << sampleShift) - 1,
		salt:      xrand.Mix64(seed ^ 0x5a11ce0fda7a5eed),
		maxTags:   maxTags,
		idx:       &recency.New(1, int32(maxTags))[0],
		addr:      make([]uint64, maxTags),
		slot:      recency.NewSlots(int32(maxTags)),
		table:     recency.NewTable[uint16](1<<tableBits, int32(maxTags)),
		homeShift: uint(64 - tableBits),
		hist:      make([]uint64, maxTags),
	}
}

// hash is the sampling hash: low bits for the sample, top bits for the table.
func (p *Profiler) hash(addr uint64) uint64 { return xrand.Mix64(addr ^ p.salt) }

// probe walks addr's chain from its home and returns the table position
// holding it with its tag, or the empty position that ends the chain and −1.
func (p *Profiler) probe(addr, hash uint64) (pos int32, tag int32) {
	last := int32(p.table.Len() - 1)
	for pos = int32(hash >> p.homeShift); ; pos = (pos + 1) & last {
		e := p.table.At(pos)
		if e == 0 {
			return pos, -1
		}
		if tag = e - 1; p.addr[tag] == addr {
			return pos, tag
		}
	}
}

// unlink removes tag's entry and closes the gap: a later entry of the chain
// moves back into the hole when that keeps it at or after its home, in cyclic
// distance since a chain may run past the table's end.
func (p *Profiler) unlink(tag int32) {
	pos, _ := p.probe(p.addr[tag], p.hash(p.addr[tag]))
	last := int32(p.table.Len() - 1)
	for next := (pos + 1) & last; p.table.At(next) != 0; next = (next + 1) & last {
		e := p.table.At(next)
		home := int32(p.hash(p.addr[e-1]) >> p.homeShift)
		if (next-home)&last >= (next-pos)&last {
			p.table.Put(pos, e)
			pos = next
		}
	}
	p.table.Put(pos, 0)
}

// Sampled reports whether addr falls in the profiler's spatial sample. It is
// pure, so concurrent fast paths may call it before taking any lock.
func (p *Profiler) Sampled(addr uint64) bool { return p.hash(addr)&p.mask == 0 }

// Touch records one reference, tracking it only when sampled, and reports
// whether it was sampled.
func (p *Profiler) Touch(addr uint64) bool {
	hash := p.hash(addr)
	if hash&p.mask != 0 {
		p.offered++
		return false
	}
	p.touch(addr, hash)
	return true
}

// touch records one sampled reference, given its sampling hash. Splitting the
// check from the update lets the Allocator hash outside its lock.
func (p *Profiler) touch(addr, hash uint64) {
	p.offered++
	p.sampled++
	// A seq of its own for every reference: no two tags are ever accessed
	// "at once", so the index's equal-seq ordering never applies.
	seq := p.idx.LastSeq() + 1
	pos, tag := p.probe(addr, hash)
	if tag >= 0 {
		s := p.slot.At(tag)
		if s == 0 {
			panic("alloc: shadow index lost a tracked line")
		}
		// The tag's recency rank is one plus the distinct sampled lines used
		// since — the sampled stack distance. At most maxTags are tracked,
		// so it always lands inside hist.
		p.hist[p.idx.Rank(s)-1]++
		p.idx.Hit(tag, seq, &p.slot)
		return
	}
	p.far++
	tag = p.idx.Live()
	if int(tag) == p.maxTags {
		// Bounded memory: reuse the least recently used tag. Its line's next
		// reuse will count as far, exactly as if a maxTags-line shadow cache
		// evicted it.
		tag = p.idx.Worst()
		p.idx.Evict(tag, &p.slot)
		p.unlink(tag)
		pos, _ = p.probe(addr, hash) // the shift may have moved the chain's end
	}
	p.addr[tag] = addr
	p.table.Put(pos, tag+1)
	p.idx.Insert(tag, seq, &p.slot)
}

// CheckInvariants audits the tag storage: the recency index is sound, the
// table has the halves its bound of maxTags calls for and holds exactly the
// index's tags, 0..Live()−1, and a probe for an entry's address ends at that
// entry (nothing empty or equal before it on its chain).
func (p *Profiler) CheckInvariants() error {
	tracked := make([]bool, p.maxTags)
	if err := p.idx.CheckInvariants(&p.slot, tracked); err != nil {
		return err
	}
	if !p.table.Matches(int32(p.maxTags)) {
		return fmt.Errorf("alloc: a table of %d entries has the wrong halves for %d tags", p.table.Len(), p.maxTags)
	}
	live, entries := p.idx.Live(), int32(0)
	for pos := range int32(p.table.Len()) {
		e := p.table.At(pos)
		if e == 0 {
			continue
		}
		entries++
		if e < 0 || e > live || !tracked[e-1] {
			return fmt.Errorf("alloc: table position %d holds tag %d, not one of the index's %d", pos, e-1, live)
		}
		a := p.addr[e-1]
		if at, got := p.probe(a, p.hash(a)); at != pos {
			return fmt.Errorf("alloc: tag %d (%#x) sits at table position %d, its probe ends at %d on tag %d", e-1, a, pos, at, got)
		}
	}
	if entries != live {
		return fmt.Errorf("alloc: table holds %d entries, index %d live tags", entries, live)
	}
	return nil
}

// Decay halves every counter (integer halving, deterministic) while keeping
// the shadow tags warm. The allocator calls it at each epoch boundary, so
// counters are an exponentially weighted sum over epochs with λ = 1/2.
func (p *Profiler) Decay() {
	for i := range p.hist {
		p.hist[i] >>= 1
	}
	p.far >>= 1
	p.sampled >>= 1
	p.offered >>= 1
}

// Offered returns the decayed count of all references presented to the
// profiler (sampled or not).
func (p *Profiler) Offered() uint64 { return p.offered }

// SampledCount returns the decayed count of tracked references.
func (p *Profiler) SampledCount() uint64 { return p.sampled }

// Far returns the decayed count of sampled references that no tracked line
// explains: first uses, plus reuses at sampled distances beyond maxTags.
func (p *Profiler) Far() uint64 { return p.far }

// Histogram returns a copy of the decayed stack-distance counts:
// Histogram()[d] is the number of sampled reuses at sampled distance d+1.
func (p *Profiler) Histogram() []uint64 {
	return append([]uint64(nil), p.hist...)
}

// MaxLines returns the largest estimated cache size the profiler resolves:
// maxTags tracked lines scaled back by the sampling rate.
func (p *Profiler) MaxLines() int { return p.maxTags << p.shift }

// Truncated reports whether MissRatio(lines) is saturated by the bounded
// shadow depth (lines strictly beyond MaxLines(); the MaxLines() point
// itself is fully resolved).
func (p *Profiler) Truncated(lines int) bool { return lines > p.MaxLines() }

// sampledHits returns the decayed sampled-reference hit count a cache of
// `lines` lines would have seen: reuses at sampled distances ≤ lines>>shift.
func (p *Profiler) sampledHits(lines int) uint64 {
	if lines <= 0 {
		return 0
	}
	limit := lines >> p.shift
	if limit > p.maxTags {
		limit = p.maxTags
	}
	var hits uint64
	for d := 0; d < limit; d++ {
		hits += p.hist[d]
	}
	return hits
}

// HitsAt estimates the decayed full-stream hit count with `lines` lines:
// sampled hits scaled back by the sampling rate. Objectives compare these
// across partitions, so the scaling keeps monitors with different traffic
// volumes commensurable.
func (p *Profiler) HitsAt(lines int) uint64 {
	return p.sampledHits(lines) << p.shift
}

// hitCurve returns HitsAt(c·chunk) for c = 0..n, summing the histogram once
// for the whole grid where n HitsAt calls would each start from zero.
func (p *Profiler) hitCurve(chunk, n int) []uint64 {
	h := make([]uint64, n+1)
	var hits uint64
	d := 0
	for c := 1; c <= n; c++ {
		for limit := min(c*chunk>>p.shift, p.maxTags); d < limit; d++ {
			hits += p.hist[d]
		}
		h[c] = hits << p.shift
	}
	return h
}

// MissRatio estimates the miss ratio of an LRU cache with `lines` lines
// over the decayed sampled stream. With no sampled references yet it
// returns 1 (everything would miss). For lines > MaxLines() the value
// saturates at the MaxLines() point (see Truncated).
func (p *Profiler) MissRatio(lines int) float64 {
	if p.sampled == 0 {
		return 1
	}
	return float64(p.sampled-p.sampledHits(lines)) / float64(p.sampled)
}

// Curve returns estimated miss ratios at each requested size.
func (p *Profiler) Curve(sizes []int) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = p.MissRatio(s)
	}
	return out
}
