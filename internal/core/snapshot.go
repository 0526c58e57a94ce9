package core

import (
	"fmt"
	"strings"
)

// PartSnapshot is a point-in-time copy of one partition's measurements: its
// PartStats record (counters, EvictFutility as a deep copy, AEF, MissRate)
// plus the size, target and occupancy the cache holds beside it.
type PartSnapshot struct {
	PartStats
	// Size and Target are the partition's decision size and target at the
	// moment of the snapshot.
	Size   int
	Target int
	// OccupancySum accumulates the partition's size sampled at every access.
	OccupancySum uint64
	// MeanOccupancy is the time-averaged size in lines, OccupancySum/Accesses
	// for one cache; Merge adds it, so over one cache's stripes it is the
	// cache-wide mean.
	MeanOccupancy float64
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
		ps := PartSnapshot{
			PartStats:     c.pstats[p],
			Size:          c.sizes[p],
			Target:        c.targets[p],
			OccupancySum:  c.pstats[p].occupancySum,
			MeanOccupancy: c.MeanOccupancy(p),
		}
		ps.EvictFutility = ps.EvictFutility.Clone()
		s.Parts[p] = ps
	}
	return s
}

// Merge folds other into s: counters add, sizes, targets and mean
// occupancies add (the merged snapshot describes the union of the two
// caches), and histograms merge.
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
		a.MeanOccupancy += b.MeanOccupancy
		if a.EvictFutility == nil {
			a.EvictFutility = b.EvictFutility.Clone()
		} else {
			a.EvictFutility.Merge(b.EvictFutility)
		}
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
