package core

import (
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/futility"
	"fscache/internal/trace"
)

const (
	benchLines = 4096
	benchParts = 2
	benchSeed  = 0xbe7c4
)

// setAssoc16 is the acceptance configuration's array: 16-way, H3-indexed.
func setAssoc16() cachearray.Array {
	return cachearray.NewSetAssoc(benchLines, 16, cachearray.IndexH3, benchSeed)
}

// z52 is the paper's high-associativity point: a Z4/52 zcache.
func z52() cachearray.Array { return cachearray.NewZCache(benchLines, 4, 3, benchSeed) }

// benchCache assembles arr under feedback Futility Scaling, ranked by kind,
// with equal targets; over setAssoc16 that is the acceptance configuration. A
// kind that needs a separate reference ranker gets one when measured, and is
// unmeasured otherwise. full wraps the scheme in FullPath.
func benchCache(arr cachearray.Array, kind futility.Kind, measured, full bool) *Cache {
	var scheme Scheme = NewFSFeedback(benchParts, FSFeedbackConfig{})
	if full {
		scheme = FullPath{scheme}
	}
	cfg := Config{
		Array:  arr,
		Ranker: futility.New(kind, benchLines, benchParts, benchSeed^0x9a),
		Scheme: scheme,
		Parts:  benchParts,
	}
	if rk := futility.Reference(kind); rk != kind && measured {
		cfg.Reference = futility.New(rk, benchLines, benchParts, benchSeed^0x4ef)
	}
	c := New(cfg)
	c.SetTargets([]int{benchLines / benchParts, benchLines / benchParts})
	return c
}

// hitOp returns a setup for the hit path: a working set of 512 addresses
// over 256 sets never approaches 16-way capacity, so once it is resident
// every access hits.
func hitOp(kind futility.Kind, measured bool) func(testing.TB) func(int) {
	return func(tb testing.TB) func(int) {
		c := benchCache(setAssoc16(), kind, measured, false)
		addrs := make([]uint64, 512)
		for i := range addrs {
			addrs[i] = uint64(i+1) << 8
			c.Access(addrs[i], i&1, trace.NoNextUse)
		}
		next := 0
		return func(n int) {
			i := next
			for end := i + n; i < end; i++ {
				if !c.Access(addrs[i%len(addrs)], i&1, trace.NoNextUse).Hit {
					tb.Fatal("expected steady-state hit")
				}
			}
			next = i
		}
	}
}

// missOp returns a setup for the miss path: candidate ranking, the FS
// decision, eviction and install. The warm-up inserts 4× the capacity in
// distinct addresses, so every set is full and every miss evicts.
func missOp(array func() cachearray.Array, kind futility.Kind, measured, full bool) func(testing.TB) func(int) {
	return func(tb testing.TB) func(int) {
		c := benchCache(array(), kind, measured, full)
		last := uint64(0)
		for last < 4*benchLines {
			last++
			c.Access(last, int(last)&1, trace.NoNextUse)
		}
		return func(n int) {
			addr := last
			for range n {
				addr++
				if c.Access(addr, int(addr)&1, trace.NoNextUse).Hit {
					tb.Fatal("expected steady-state miss")
				}
			}
			last = addr
		}
	}
}

// demoteOp returns a setup for the miss path under demotions:
// demoteScheme moves every partition-0 candidate but the victim into
// partition 2, so a miss decodes demoted ids and demotes more. The warm-up
// inserts 8× the capacity, long enough for every population to settle.
func demoteOp(tb testing.TB) func(int) {
	c := New(Config{
		Array:  setAssoc16(),
		Ranker: futility.NewExactLRU(benchLines, 3),
		Scheme: &demoteScheme{to: 2},
		Parts:  3,
	})
	c.SetTargets([]int{benchLines / 2, benchLines / 2, 0})
	last := uint64(0)
	for last < 8*benchLines {
		last++
		c.Access(last, int(last)&1, trace.NoNextUse)
	}
	if c.Stats(0).Demotions == 0 {
		tb.Fatal("warm-up demoted nothing")
	}
	return func(n int) {
		addr := last
		for range n {
			addr++
			if c.Access(addr, int(addr)&1, trace.NoNextUse).Hit {
				tb.Fatal("expected steady-state miss")
			}
		}
		last = addr
	}
}

// allocFreeOps are this package's measured operations on the //fs:allocfree
// path (DESIGN.md §10). Each setup warms its structure and returns op, where
// op(n) performs the next n operations in an inline loop. BenchmarkAllocFree
// times op(b.N), and TestAllocFree holds op(1) to 0 allocations.
var allocFreeOps = []struct {
	name  string
	setup func(testing.TB) func(n int)
}{
	// Exact LRU: a hit flips two liveness bits.
	{"AccessHit", hitOp(futility.LRU, true)},
	// The acceptance operation of the zero-allocation replacement pipeline.
	{"AccessMiss", missOp(setAssoc16, futility.LRU, true, false)},
	// The walk, 52 slot compares, one rank per partition and relocations.
	{"AccessMissZ52", missOp(z52, futility.LRU, true, false)},
	// Under FullPath, which ranks all 52: what the pruned path saves.
	{"AccessMissZ52Full", missOp(z52, futility.LRU, true, true)},
	// §V's hardware: coarse timestamps with an exact-LRU reference.
	{"AccessHitCoarse", hitOp(futility.CoarseLRU, true)},
	{"AccessMissCoarse", missOp(setAssoc16, futility.CoarseLRU, true, false)},
	// Coarse timestamps unmeasured, as three engine stripes in four run.
	{"AccessHitCoarseNoRef", hitOp(futility.CoarseLRU, false)},
	{"AccessMissCoarseNoRef", missOp(setAssoc16, futility.CoarseLRU, false, false)},
	// Demotions into the cache's one demotion target.
	{"AccessMissDemoting", demoteOp},
}

func BenchmarkAllocFree(b *testing.B) {
	for _, o := range allocFreeOps {
		b.Run(o.name, func(b *testing.B) {
			op := o.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			op(b.N)
		})
	}
}

func TestAllocFree(t *testing.T) {
	for _, o := range allocFreeOps {
		t.Run(o.name, func(t *testing.T) {
			op := o.setup(t)
			if n := testing.AllocsPerRun(100, func() { op(1) }); n != 0 {
				t.Errorf("%v allocations per warm op", n)
			}
		})
	}
}
