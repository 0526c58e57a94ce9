package core_test

import (
	"testing"

	"fscache/internal/baselines"
	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// A coarse cache without a Reference is the measured one minus the
// measurement: under FS, PF and Vantage, on one stream, the two return the
// same result for every access but for EvictedFutility, which the unmeasured
// cache leaves 0, and end in the same snapshot but for the eviction-futility
// histograms, which it leaves empty. Decisions read the decision ranker
// alone, so PF and Vantage, which read its futility, decide the same with and
// without the exact reference.
func TestUnmeasuredDecidesLikeMeasured(t *testing.T) {
	const lines, parts = 1024, 4
	for _, tc := range []struct {
		name    string
		total   int // partitions, with Vantage's unmanaged one
		managed int // lines the application targets sum to
		scheme  func(total int) core.Scheme
	}{
		{"fs", parts, lines, func(n int) core.Scheme { return core.NewFSFeedback(n, core.FSFeedbackConfig{}) }},
		{"pf", parts, lines, func(n int) core.Scheme { return baselines.NewPF(n) }},
		{"vantage", parts + 1, baselines.VantageManagedLines(lines), func(n int) core.Scheme { return baselines.NewVantage(n) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(ref futility.Ranker) *core.Cache {
				c := core.New(core.Config{
					Array:     cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, 11),
					Ranker:    futility.NewCoarseTS(lines, tc.total),
					Reference: ref,
					Scheme:    tc.scheme(tc.total),
					Parts:     tc.total,
				})
				targets := make([]int, tc.total)
				for p := 1; p < parts; p++ {
					targets[p] = tc.managed / 8
				}
				targets[0] = tc.managed - (parts-1)*(tc.managed/8)
				c.SetTargets(targets)
				return c
			}
			measured, unmeasured := build(futility.NewExactLRU(lines, tc.total)), build(nil)
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
						t.Fatalf("access %d: measured eviction futility %v outside (0, 1]", i, m.EvictedFutility)
					}
				}
				if u.EvictedFutility != 0 {
					t.Fatalf("access %d: unmeasured cache reported eviction futility %v", i, u.EvictedFutility)
				}
				if m.EvictedFutility = 0; m != u {
					t.Fatalf("access %d: measured %+v, unmeasured %+v", i, m, u)
				}
			}
			if evictions == 0 {
				t.Fatal("the stream evicted nothing")
			}
			ms, us := measured.StatsSnapshot(), unmeasured.StatsSnapshot()
			for p := range us.Parts {
				if n := us.Parts[p].EvictFutility.N(); n != 0 {
					t.Errorf("partition %d: unmeasured cache recorded %d eviction futilities", p, n)
				}
				if n := ms.Parts[p].EvictFutility.N(); n != ms.Parts[p].Evictions {
					t.Errorf("partition %d: measured cache recorded %d futilities for %d evictions", p, n, ms.Parts[p].Evictions)
				}
				ms.Parts[p].EvictFutility = us.Parts[p].EvictFutility
			}
			if ms.String() != us.String() {
				t.Errorf("snapshots differ beyond the futility histograms:\nmeasured\n%s\nunmeasured\n%s", ms, us)
			}
			for _, c := range []*core.Cache{measured, unmeasured} {
				if err := c.CheckInvariants(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// A coarse ranker's futility is an estimate, so it cannot measure another.
func TestNewRejectsCoarseReference(t *testing.T) {
	defer func() {
		if r := recover(); r != "core: a Reference must be exact, not coarse timestamps" {
			t.Fatalf("recovered %v, want the coarse-reference panic", r)
		}
	}()
	core.New(core.Config{
		Array:     cachearray.NewSetAssoc(64, 4, cachearray.IndexH3, 1),
		Ranker:    futility.NewCoarseTS(64, 1),
		Reference: futility.NewCoarseTS(64, 1),
		Scheme:    core.NewFSFeedback(1, core.FSFeedbackConfig{}),
		Parts:     1,
	})
}
