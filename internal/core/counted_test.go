//go:build fscount

package core

import (
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/futility"
	"fscache/internal/stats"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// TestCounted pins the ranker queries (FutilityRaw and CoarseTS.Distance
// calls) each access makes, counted by the fscount build, on full 16-way
// caches under FS. A hit queries nothing. A coarse miss takes one Distance
// per candidate, 16, plus the victim's FutilityRaw on the exact-LRU
// reference when it measures. An exact-LRU miss ranks one candidate per
// partition among the 16, the oldest by slot order, plus the victim's
// measurement on the decision ranker.
//
//	go test -tags fscount -run Counted ./internal/core
func TestCounted(t *testing.T) {
	const lines, parts, ways = 1024, 4, 16
	build := func(ranker, ref futility.Ranker, unmeasured bool) *Cache {
		c := New(Config{
			Array:      cachearray.NewSetAssoc(lines, ways, cachearray.IndexH3, 3),
			Ranker:     ranker,
			Reference:  ref,
			Unmeasured: unmeasured,
			Scheme:     NewFSFeedback(parts, FSFeedbackConfig{}),
			Parts:      parts,
		})
		c.SetTargets([]int{256, 256, 256, 256})
		rng := xrand.New(9)
		for i := 0; i < 16*lines; i++ {
			part := rng.Intn(parts)
			c.Access(uint64(part)<<32|uint64(rng.Intn(2*lines)), part, trace.NoNextUse)
		}
		return c
	}
	unmeasured := build(futility.NewCoarseTS(lines, parts), nil, true)
	withRef := build(futility.NewCoarseTS(lines, parts), futility.NewExactLRU(lines, parts), false)
	exact := build(futility.NewExactLRU(lines, parts), nil, false)

	const absent = 1 << 40
	// partsAmong counts the partitions among the candidates absent would
	// evict from.
	partsAmong := func(c *Cache) int {
		seen := map[int]bool{}
		for _, l := range c.array.Candidates(absent, nil) {
			if c.meta[l] == noLine {
				t.Fatalf("set of %#x has a free line", absent)
			}
			seen[c.partOf(l)] = true
		}
		return len(seen)
	}
	miss := func(c *Cache) func() { return func() { c.Access(absent, 0, trace.NoNextUse) } }
	resident := uint64(1)<<32 | 7
	exact.Access(resident, 1, trace.NoNextUse)
	for _, row := range []struct {
		name string
		want int
		op   func()
	}{
		{"Hit", 0, func() { exact.Access(resident, 1, trace.NoNextUse) }},
		{"CoarseUnmeasuredMiss", ways, miss(unmeasured)},
		{"CoarseExactRefMiss", ways + 1, miss(withRef)},
		{"ExactMiss", partsAmong(exact) + 1, miss(exact)},
	} {
		before := stats.ReadCounted().Queries
		row.op()
		if got := int(stats.ReadCounted().Queries - before); got != row.want {
			t.Errorf("%s: %d ranker queries, want %d", row.name, got, row.want)
		}
	}
}
