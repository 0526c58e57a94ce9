package perfbench

// Parallel throughput rows: the GOMAXPROCS scaling surface.
//
// Each row is a b.RunParallel body over one warm striped engine, so the
// measured quantity is aggregate accesses/sec at whatever GOMAXPROCS the
// harness set — cmd/fsbench sweeps these rows across -procs settings to
// produce the ops/s-vs-GOMAXPROCS curve, and gates the ratio between the
// top setting and the 1-proc figure (the scaling-efficiency band, scaled
// by min(procs, NumCPU) so a single-CPU runner measures honestly instead
// of failing vacuously).
//
// Three contention regimes:
//
//   - get-heavy: a resident working set, ~every access hits. The hot path
//     is one stripe lock + ranker retag; scaling is limited only by lock
//     spread, so this row carries the tightest efficiency band. Ungated
//     beside it, -private (an engine each) and -disjoint (no stripe shared)
//     split its cost per goroutine into machine, false and true sharing.
//   - mixed: the Zipf pools (hits + evicting misses). Misses do real
//     replacement work under the stripe lock, so the row measures scaling
//     of the full pipeline.
//   - storm: mixed traffic while a dedicated goroutine runs Rebalance
//     back-to-back — the redistribution-never-blocks-a-GET claim under the
//     worst cadence. The async snapshot-then-apply distributor holds rmu,
//     not the access path's stripe locks, so throughput should degrade
//     only modestly against the mixed row.

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fscache/internal/alloc"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/shardcache"
	"fscache/internal/xrand"
)

// benchStripes matches the stripe layout fsload and the server default to:
// 4 shards × 4 stripes = 16 locks over a 4096-line cache.
const benchStripes = 4

func stripedEngine() *shardcache.Engine {
	e := shardcache.New(shardcache.Config{
		Lines:   cacheLines,
		Ways:    16,
		Shards:  4,
		Stripes: benchStripes,
		Parts:   cacheParts,
		Ranking: futility.CoarseLRU,
		Seed:    benchSeed ^ 0x5d,
	})
	targets := make([]int, cacheParts)
	for i := range targets {
		targets[i] = cacheLines / cacheParts
	}
	e.SetTargets(targets)
	return e
}

// residentAccesses builds a shared resident working set: 1024 distinct
// lines in a 4096-line cache never face eviction pressure, so replaying
// them is ~all hits.
func residentAccesses(e *shardcache.Engine) []shardcache.Access {
	pool := make([]shardcache.Access, 1024)
	for i := range pool {
		part := i & 1
		pool[i] = shardcache.Access{
			Addr: xrand.Mix64(uint64(part+1)<<24 + uint64(i)),
			Part: part,
		}
	}
	for _, a := range pool {
		e.Access(a.Addr, a.Part)
	}
	return pool
}

// warmMixed drives the engine to steady state on the Zipf pools.
func warmMixed(e *shardcache.Engine) [][]shardcache.Access {
	pools := sharedPools.get()
	for _, pool := range pools {
		for _, a := range pool[:poolSize/4] {
			e.Access(a.Addr, a.Part)
		}
	}
	e.Rebalance()
	return pools
}

// runParallel replays accesses from every RunParallel goroutine. Each
// goroutine claims a distinct index, takes its engine and its pool (a power
// of two long) round robin and walks the pool from a goroutine-specific
// offset, so two goroutines never replay in lockstep.
func runParallel(b *testing.B, engines []*shardcache.Engine, pools [][]shardcache.Access) {
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(ctr.Add(1) - 1)
		e, pool := engines[g%len(engines)], pools[g%len(pools)]
		mask := len(pool) - 1
		i := int(xrand.Mix64(uint64(g+1))) & mask
		for pb.Next() {
			a := pool[i&mask]
			e.Access(a.Addr, a.Part)
			i++
		}
	})
}

// ParallelGetHeavy measures hit-path scaling: all goroutines replay one
// resident working set.
func ParallelGetHeavy(b *testing.B) {
	e := stripedEngine()
	pool := residentAccesses(e)
	runParallel(b, []*shardcache.Engine{e}, [][]shardcache.Access{pool})
}

// ParallelGetHeavyPrivate is ParallelGetHeavy with nothing shared: every
// goroutine replays the resident set of an engine of its own.
func ParallelGetHeavyPrivate(b *testing.B) {
	engines := make([]*shardcache.Engine, runtime.GOMAXPROCS(0))
	pools := make([][]shardcache.Access, len(engines))
	for g := range engines {
		engines[g] = stripedEngine()
		pools[g] = residentAccesses(engines[g])
	}
	runParallel(b, engines, pools)
}

// ParallelGetHeavyDisjoint is ParallelGetHeavy with no stripe shared:
// goroutine g replays only the resident lines of the shards that are g modulo
// the goroutine count (past the four shards, goroutines four apart share).
func ParallelGetHeavyDisjoint(b *testing.B) {
	e := stripedEngine()
	pools := make([][]shardcache.Access, min(runtime.GOMAXPROCS(0), e.Shards()))
	for _, a := range residentAccesses(e) {
		c := e.ShardOf(a.Addr) % len(pools)
		pools[c] = append(pools[c], a)
	}
	for c, pool := range pools {
		pools[c] = pool[:1<<(bits.Len(uint(len(pool)))-1)] // the replay index wraps with a mask
	}
	runParallel(b, []*shardcache.Engine{e}, pools)
}

// ParallelMixed measures full-pipeline scaling on the Zipf pools.
func ParallelMixed(b *testing.B) {
	e := stripedEngine()
	pools := warmMixed(e)
	runParallel(b, []*shardcache.Engine{e}, pools)
}

// ParallelStorm measures mixed-traffic scaling under a redistribution
// storm: a dedicated goroutine runs Rebalance back-to-back for the whole
// timed region.
func ParallelStorm(b *testing.B) {
	e := stripedEngine()
	pools := warmMixed(e)
	stop := make(chan struct{})
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Rebalance()
			}
		}
	}()
	runParallel(b, []*shardcache.Engine{e}, pools)
	b.StopTimer()
	close(stop)
	storm.Wait()
}

// ObserveParallel measures alloc.Allocator.Observe under b.RunParallel on a
// serve-sized allocator, each goroutine feeding its own Zipf pool: what an
// access of a shared engine pays for the online allocator beside it.
func ObserveParallel(b *testing.B) {
	a := alloc.New(alloc.Config{Parts: cacheParts, Lines: 4 * cacheLines, Seed: benchSeed})
	pools := sharedPools.get()
	for _, acc := range pools[0] { // fill the shadow tags
		a.Observe(acc.Part, acc.Addr)
	}
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pool := pools[int(ctr.Add(1)-1)%len(pools)]
		for i := 0; pb.Next(); i++ {
			acc := pool[i&(poolSize-1)]
			a.Observe(acc.Part, acc.Addr)
		}
	})
}

// BatchAccess measures the batched submission path per request: one warm
// Batch flushing 64-request chunks of the Zipf pool on a single goroutine.
// The row is bound by the steady-state zero-allocation contract — the
// //fs:allocfree annotation on Batch.Access, enforced end to end here.
func BatchAccess(b *testing.B) {
	e := stripedEngine()
	pools := warmMixed(e)
	pool := pools[0]
	const flush = 64
	batch := e.NewBatch()
	results := make([]core.AccessResult, flush)
	batch.Access(pool[:flush], results) // grow the batch scratch before timing
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		k := done & (poolSize - 1 - (flush - 1)) // chunk-aligned wrap
		n := flush
		if b.N-done < n {
			n = b.N - done
		}
		batch.Access(pool[k:k+n], results[:n])
		done += n
	}
}
