package core

import (
	"fmt"
	"strings"

	"fscache/internal/stats"
)

// PartSnapshot is a point-in-time copy of one partition's measurements.
type PartSnapshot struct {
	Hits        uint64
	Misses      uint64
	Insertions  uint64
	Evictions   uint64
	Demotions   uint64
	ForcedEvict uint64
	// Size and Target are the partition's decision size and target at the
	// moment of the snapshot.
	Size   int
	Target int
	// OccupancySum accumulates the partition's size sampled at every access;
	// OccupancySum/Accesses is the time-averaged occupancy.
	OccupancySum uint64
	// EvictFutility is a deep copy of the partition's associativity
	// distribution; its Mean() is the AEF.
	EvictFutility *stats.Histogram
}

// AEF returns the partition's average eviction futility, or 0 — not a value
// futility takes — when EvictFutility.N() == 0 (see PartStats.AEF).
func (p *PartSnapshot) AEF() float64 { return p.EvictFutility.Mean() }

// MissRate returns misses/(hits+misses), or 0 with no accesses.
func (p *PartSnapshot) MissRate() float64 {
	t := p.Hits + p.Misses
	if t == 0 {
		return 0
	}
	return float64(p.Misses) / float64(t)
}

// Snapshot is a deep copy of a Cache's measurement state: per-partition
// counters, sizes, targets, occupancy accumulators, and eviction-futility
// histograms. Snapshots are plain values with no ties back to the cache, so
// they can be merged, compared, and rendered outside any lock.
type Snapshot struct {
	Accesses uint64
	Parts    []PartSnapshot
}

// StatsSnapshot returns a deep copy of the cache's measurement state. It is
// read-only with respect to cache contents, but like every Cache method it
// must be externally serialized against concurrent accesses: a concurrent
// layer (internal/shardcache) holds its per-cache lock for the duration of
// the call and works on the returned value afterwards.
func (c *Cache) StatsSnapshot() Snapshot {
	s := Snapshot{
		Accesses: c.accesses,
		Parts:    make([]PartSnapshot, c.parts),
	}
	for p := 0; p < c.parts; p++ {
		c.creditOccupancy(p, c.accesses)
		ps := &c.pstats[p]
		s.Parts[p] = PartSnapshot{
			Hits:          ps.Hits,
			Misses:        ps.Misses,
			Insertions:    ps.Insertions,
			Evictions:     ps.Evictions,
			Demotions:     ps.Demotions,
			ForcedEvict:   ps.ForcedEvict,
			Size:          c.sizes[p],
			Target:        c.targets[p],
			OccupancySum:  ps.occupancySum,
			EvictFutility: ps.EvictFutility.Clone(),
		}
	}
	return s
}

// MeanOccupancy returns the partition's time-averaged size in lines over
// the snapshot's accesses.
func (s *Snapshot) MeanOccupancy(part int) float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Parts[part].OccupancySum) / float64(s.Accesses)
}

// Merge folds other into s: counters add, sizes and targets add (the merged
// snapshot describes the union of the two caches), and histograms merge.
// Partition counts and histogram widths must match.
func (s *Snapshot) Merge(other Snapshot) {
	if len(s.Parts) != len(other.Parts) {
		panic("core: merging snapshots with different partition counts")
	}
	s.Accesses += other.Accesses
	for p := range s.Parts {
		a, b := &s.Parts[p], &other.Parts[p]
		a.Hits += b.Hits
		a.Misses += b.Misses
		a.Insertions += b.Insertions
		a.Evictions += b.Evictions
		a.Demotions += b.Demotions
		a.ForcedEvict += b.ForcedEvict
		a.Size += b.Size
		a.Target += b.Target
		a.OccupancySum += b.OccupancySum
		a.EvictFutility.Merge(b.EvictFutility)
	}
}

// String renders the snapshot in a fixed, deterministic layout (including
// the raw histogram buckets), so byte-equality of two renderings means the
// underlying measurement states are identical. The determinism tests in
// internal/shardcache rely on this.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "accesses=%d parts=%d\n", s.Accesses, len(s.Parts))
	for p := range s.Parts {
		ps := &s.Parts[p]
		fmt.Fprintf(&b, "part %d: hits=%d misses=%d ins=%d ev=%d dem=%d forced=%d size=%d target=%d occsum=%d",
			p, ps.Hits, ps.Misses, ps.Insertions, ps.Evictions, ps.Demotions,
			ps.ForcedEvict, ps.Size, ps.Target, ps.OccupancySum)
		fmt.Fprintf(&b, " efsum=%x efhist=%v\n", ps.EvictFutility.Sum(), ps.EvictFutility.Counts())
	}
	return b.String()
}
