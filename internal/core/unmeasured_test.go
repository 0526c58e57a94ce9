package core

import (
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// An unmeasured cache is the measured one minus the measurement: on one
// stream the two return the same result for every access but for
// EvictedFutility, and end in the same snapshot but for the eviction-futility
// histograms, which the unmeasured cache leaves empty. Run once where the
// measured cache keeps a separate reference (the engine's coarse stripes) and
// once where its decision ranker doubles as reference.
func TestUnmeasuredDecidesLikeMeasured(t *testing.T) {
	const lines, parts = 1024, 4
	for _, tc := range []struct {
		name   string
		ranker func() futility.Ranker
		ref    func() futility.Ranker
	}{
		{"coarse + exact reference",
			func() futility.Ranker { return futility.NewCoarseTS(lines, parts) },
			func() futility.Ranker { return futility.NewExactLRU(lines, parts) }},
		{"exact, own reference",
			func() futility.Ranker { return futility.NewExactLRU(lines, parts) },
			func() futility.Ranker { return nil }},
	} {
		build := func(unmeasured bool) *Cache {
			cfg := Config{
				Array:      cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, 11),
				Ranker:     tc.ranker(),
				Unmeasured: unmeasured,
				Scheme:     NewFSFeedback(parts, FSFeedbackConfig{}),
				Parts:      parts,
			}
			if !unmeasured {
				cfg.Reference = tc.ref()
			}
			c := New(cfg)
			c.SetTargets([]int{640, 128, 128, 128})
			return c
		}
		measured, unmeasured := build(false), build(true)
		rng := xrand.New(5)
		evictions := 0
		for i := 0; i < 40000; i++ {
			part := rng.Intn(parts)
			addr := uint64(part)<<32 | uint64(rng.Intn(600))
			if rng.Intn(2) == 0 {
				addr = uint64(part)<<32 | uint64(1<<20+i)
			}
			m, u := measured.Access(addr, part, trace.NoNextUse), unmeasured.Access(addr, part, trace.NoNextUse)
			if m.Evicted {
				evictions++
				if m.EvictedFutility <= 0 || m.EvictedFutility > 1 {
					t.Fatalf("%s: access %d: measured eviction futility %v outside (0, 1]", tc.name, i, m.EvictedFutility)
				}
			}
			if u.EvictedFutility != 0 {
				t.Fatalf("%s: access %d: unmeasured cache reported eviction futility %v", tc.name, i, u.EvictedFutility)
			}
			if m.EvictedFutility = 0; m != u {
				t.Fatalf("%s: access %d: measured %+v, unmeasured %+v", tc.name, i, m, u)
			}
		}
		if evictions == 0 {
			t.Fatalf("%s: the stream evicted nothing", tc.name)
		}
		ms, us := measured.StatsSnapshot(), unmeasured.StatsSnapshot()
		for p := range us.Parts {
			if n := us.Parts[p].EvictFutility.N(); n != 0 {
				t.Errorf("%s: partition %d: unmeasured cache recorded %d eviction futilities", tc.name, p, n)
			}
			if n := ms.Parts[p].EvictFutility.N(); n != ms.Parts[p].Evictions {
				t.Errorf("%s: partition %d: measured cache recorded %d futilities for %d evictions", tc.name, p, n, ms.Parts[p].Evictions)
			}
			ms.Parts[p].EvictFutility = us.Parts[p].EvictFutility
		}
		if ms.String() != us.String() {
			t.Errorf("%s: snapshots differ beyond the futility histograms:\nmeasured\n%s\nunmeasured\n%s", tc.name, ms, us)
		}
		for _, c := range []*Cache{measured, unmeasured} {
			if err := c.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
}

// CheckInvariants must notice each kind of damage it documents.
func TestCheckInvariantsDetects(t *testing.T) {
	const lines, parts = 64, 2
	build := func(unmeasured bool) *Cache {
		cfg := Config{
			Array:      cachearray.NewSetAssoc(lines, 4, cachearray.IndexXOR, 1),
			Ranker:     futility.NewCoarseTS(lines, parts),
			Unmeasured: unmeasured,
			Scheme:     NewFSFeedback(parts, FSFeedbackConfig{}),
			Parts:      parts,
		}
		if !unmeasured {
			cfg.Reference = futility.NewExactLRU(lines, parts)
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
		for l := range c.meta {
			if c.meta[l] != noLine {
				return l
			}
		}
		t.Fatal("no resident line")
		return -1
	}
	for _, tc := range []struct {
		name       string
		unmeasured bool
		damage     func(c *Cache)
	}{
		{"decision size", false, func(c *Cache) { c.sizes[0]++; c.sizes[1]-- }},
		{"negative target", false, func(c *Cache) { c.targets[1] = -1 }},
		{"line without a partition", false, func(c *Cache) { c.meta[resident(c)] = noLine }},
		{"demoted line with no demotion target", false, func(c *Cache) {
			l := resident(c)
			c.meta[l] = demotedID(c.ownerOf(l))
		}},
		// Its sizes still recount: only the encoding's one form is violated.
		{"line demoted into its own partition", false, func(c *Cache) {
			l := resident(c)
			c.demoteTo = c.ownerOf(l)
			c.meta[l] = demotedID(c.demoteTo)
		}},
		{"demotion target out of range", false, func(c *Cache) { c.demoteTo = parts }},
		{"decision ranker population", false, func(c *Cache) {
			l := resident(c)
			c.ranker.OnEvict(l, c.partOf(l))
		}},
		{"reference population", false, func(c *Cache) {
			l := resident(c)
			c.ref.OnEvict(l, c.ownerOf(l))
		}},
		{"futility recorded on an unmeasured cache", true, func(c *Cache) { c.pstats[1].EvictFutility.Add(0.5) }},
	} {
		c := build(tc.unmeasured)
		tc.damage(c)
		if c.CheckInvariants() == nil {
			t.Errorf("%s: damage went unnoticed", tc.name)
		}
	}
}
