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

// Vantage at 127 partitions keeps 1-byte partition codes and from 128 2-byte
// ones (2·Parts reaches 256). Its demoted codes reach 2·Parts−1, since the last
// partition is the unmanaged one: 255 at 128 partitions, so 129 puts the high
// half to use. On each, lines of the highest application partition are demoted
// into the unmanaged region and keep their owner: every eviction names the
// partition whose address it drops, every access leaves its line resident, and
// the invariants' recount of decision partitions, owners (the reference
// ranker's populations) and code-table width holds.
func TestVantagePartitionCodes(t *testing.T) {
	const lines = 4096
	for _, parts := range []int{127, 128, 129} {
		c := core.New(core.Config{
			Array:     cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, 5),
			Ranker:    futility.NewExactLRU(lines, parts),
			Reference: futility.NewExactLRU(lines, parts),
			Scheme:    baselines.NewVantage(parts),
			Parts:     parts,
		})
		apps, top := parts-1, parts-2
		targets := make([]int, parts)
		for p := range apps {
			targets[p] = baselines.VantageManagedLines(lines) / apps
		}
		targets[top] /= 4 // oversized from its first lines on: it is demoted
		c.SetTargets(targets)
		rng := xrand.New(uint64(parts))
		for i := 0; i < 20*lines; i++ {
			p := top
			if i%2 == 0 {
				p = rng.Intn(apps)
			}
			addr := uint64(p)<<40 | uint64(rng.Intn(64))
			res := c.Access(addr, p, trace.NoNextUse)
			if !c.Resident(res.Line) {
				t.Fatalf("Parts = %d, access %d: line %d of %#x not resident", parts, i, res.Line, addr)
			}
			if res.Evicted && res.EvictedPart != int(res.EvictedAddr>>40) {
				t.Fatalf("Parts = %d, access %d: evicted %#x of partition %d as partition %d's",
					parts, i, res.EvictedAddr, res.EvictedAddr>>40, res.EvictedPart)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("Parts = %d: %v", parts, err)
		}
		if c.Stats(top).Demotions == 0 || c.Sizes()[parts-1] == 0 {
			t.Fatalf("Parts = %d: %d demotions of partition %d, %d lines unmanaged",
				parts, c.Stats(top).Demotions, top, c.Sizes()[parts-1])
		}
	}
}
