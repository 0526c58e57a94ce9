package core

import (
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/futility"
	"fscache/internal/recency"
	"fscache/internal/stats"
	"fscache/internal/trace"
)

// CheckInvariants must notice each kind of damage it documents.
func TestCheckInvariantsDetects(t *testing.T) {
	const lines, parts = 64, 2
	// Each case's cache: a coarse ranker measured against an exact-LRU
	// reference, unmeasured (coarse with no reference), or an exact-LRU ranker
	// that counts its own lines (the coarse one reads the cache's sizes and
	// has no count to lose).
	const (
		measured = iota
		unmeasured
		exact
	)
	build := func(kind int) *Cache {
		cfg := Config{
			Array:  cachearray.NewSetAssoc(lines, 4, cachearray.IndexH3, 1),
			Ranker: futility.NewCoarseTS(lines, parts),
			Scheme: NewFSFeedback(parts, FSFeedbackConfig{}),
			Parts:  parts,
		}
		switch kind {
		case measured:
			cfg.Reference = futility.NewExactLRU(lines, parts)
		case exact:
			cfg.Ranker = futility.NewExactLRU(lines, parts)
		}
		c := New(cfg)
		c.SetTargets([]int{32, 32})
		for i := 0; i < 4*lines; i++ {
			c.Access(uint64(i), i%parts, trace.NoNextUse)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("clean cache: %v", err)
		}
		return c
	}
	resident := func(c *Cache) int {
		for l := range c.meta.Len() {
			if c.Resident(l) {
				return l
			}
		}
		t.Fatal("no resident line")
		return -1
	}
	for _, tc := range []struct {
		name   string
		kind   int
		damage func(c *Cache)
	}{
		{"decision size", measured, func(c *Cache) { c.sizes[0]++; c.sizes[1]-- }},
		{"negative target", measured, func(c *Cache) { c.targets[1] = -1 }},
		{"line without a partition", measured, func(c *Cache) { c.meta.Put(int32(resident(c)), noLine) }},
		// Every code is kept: only the table's width is wrong for 2 partitions.
		{"partition codes with a high half", measured, func(c *Cache) {
			wide := recency.NewTable[uint8](c.meta.Len(), 1<<8)
			for l := range int32(c.meta.Len()) {
				wide.Put(l, c.meta.At(l))
			}
			c.meta = wide
		}},
		{"demoted line with no demotion target", measured, func(c *Cache) {
			l := resident(c)
			c.meta.Put(int32(l), c.demotedID(c.ownerOf(l)))
		}},
		// Its sizes still recount: only the encoding's one form is violated.
		{"line demoted into its own partition", measured, func(c *Cache) {
			l := resident(c)
			c.demoteTo = c.ownerOf(l)
			c.meta.Put(int32(l), c.demotedID(c.demoteTo))
		}},
		{"demotion target out of range", measured, func(c *Cache) { c.demoteTo = parts }},
		{"decision ranker population", exact, func(c *Cache) {
			l := resident(c)
			c.ranker.OnEvict(l, c.partOf(l))
		}},
		{"reference population", measured, func(c *Cache) {
			l := resident(c)
			c.ref.OnEvict(l, c.ownerOf(l))
		}},
		{"futility recorded on an unmeasured cache", unmeasured, func(c *Cache) {
			c.pstats[1].EvictFutility = stats.NewHistogram(histBuckets)
			c.pstats[1].EvictFutility.Add(0.5)
		}},
	} {
		c := build(tc.kind)
		tc.damage(c)
		if c.CheckInvariants() == nil {
			t.Errorf("%s: damage went unnoticed", tc.name)
		}
	}
}
