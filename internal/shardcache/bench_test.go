package shardcache

// Engine benchmarks. The Parallel rows are b.RunParallel bodies over one warm
// striped engine, so they measure aggregate accesses per second at whatever
// GOMAXPROCS -cpu sets; sweep them with
//
//	go test -run '^$' -bench Parallel -cpu 1,2,4,8,16 ./internal/shardcache
//
// Three contention regimes:
//
//   - get-heavy: a resident working set, ~every access hits. The hot path
//     is one stripe lock + ranker retag, so scaling is limited only by lock
//     spread. Beside it, -Private (an engine each) and -Disjoint (no stripe
//     shared) split its cost per goroutine into machine, false and true
//     sharing.
//   - mixed: the Zipf pools (hits + evicting misses). Misses do real
//     replacement work under the stripe lock, so the row measures scaling
//     of the full pipeline.
//   - storm: mixed traffic while a rebalancer installs a new target vector
//     on every poll, back to back: the retargeting-never-blocks-a-GET claim
//     under the worst cadence. An install holds each stripe lock only to
//     copy that stripe's targets, so throughput should degrade only
//     modestly against the mixed row.

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/xrand"
)

const (
	benchLines = 4096
	benchParts = 2
	benchSeed  = 0xbe7c4
	// loadWorkers is the Throughput rows' least goroutine count, the same
	// for the 1-stripe and 4-stripe rows so that they differ only in stripe
	// count; it is also the number of Zipf pools.
	loadWorkers = 4
	// poolSize is a power of two so the replay index can wrap with a mask.
	poolSize = 1 << 15
	// batchFlush is the requests per Batch.Access in the BatchAccess op.
	batchFlush = 64
)

// benchEngine is a warm-able engine over the coarse-ranked 16-way array with
// equal targets. Sixteen stripes is the layout the server defaults to: 16
// locks over 4096 lines.
func benchEngine(stripes int) *Engine {
	e := New(Config{
		Lines:   benchLines,
		Ways:    16,
		Stripes: stripes,
		Parts:   benchParts,
		Ranking: futility.CoarseLRU,
		Seed:    benchSeed ^ 0x5d,
	})
	e.SetTargets([]int{benchLines / benchParts, benchLines / benchParts})
	return e
}

func stripedEngine() *Engine { return benchEngine(16) }

// sharedPools pre-generates one access stream per load worker, so the timed
// loops measure Access (routing + lock + replacement), not address
// generation: Zipf-popular addresses over a 4x working set, Mix64-finalized
// (see BuildSchedule on H3 null spaces). The pools are a pure function of the
// seed and the testing framework re-invokes each benchmark at growing b.N, so
// they are built once.
var sharedPools = sync.OnceValue(func() [][]Access {
	pools := make([][]Access, loadWorkers)
	for w := range pools {
		rng := xrand.New(xrand.Mix64(benchSeed ^ 0xf10ad ^ uint64(w+1)))
		zipf := xrand.NewZipf(rng, 0.9, 4*benchLines)
		pool := make([]Access, poolSize)
		for i := range pool {
			part := rng.Intn(benchParts)
			pool[i] = Access{
				Addr: xrand.Mix64(uint64(part+1)<<24 + uint64(zipf.Next())),
				Part: part,
			}
		}
		pools[w] = pool
	}
	return pools
})

// warmMixed drives the engine to steady state on the Zipf pools.
func warmMixed(e *Engine) [][]Access {
	pools := sharedPools()
	for _, pool := range pools {
		for _, a := range pool[:poolSize/4] {
			e.Access(a.Addr, a.Part)
		}
	}
	return pools
}

// residentAccesses builds a resident working set: 1024 distinct lines in a
// 4096-line cache never face eviction pressure, so replaying them is ~all
// hits.
func residentAccesses(e *Engine) []Access {
	pool := make([]Access, 1024)
	for i := range pool {
		part := i & 1
		pool[i] = Access{Addr: xrand.Mix64(uint64(part+1)<<24 + uint64(i)), Part: part}
	}
	for _, a := range pool {
		e.Access(a.Addr, a.Part)
	}
	return pool
}

// runParallel replays accesses from every RunParallel goroutine. Each
// goroutine claims a distinct index, takes its engine and its pool (a power
// of two long) round robin and walks the pool from a goroutine-specific
// offset, so two goroutines never replay in lockstep.
func runParallel(b *testing.B, engines []*Engine, pools [][]Access) {
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

// BenchmarkParallelGetHeavy: every goroutine replays one resident working
// set of one engine.
func BenchmarkParallelGetHeavy(b *testing.B) {
	e := stripedEngine()
	runParallel(b, []*Engine{e}, [][]Access{residentAccesses(e)})
}

// BenchmarkParallelGetHeavyPrivate shares nothing: every goroutine replays
// the resident set of an engine of its own, the floor the machine sets.
func BenchmarkParallelGetHeavyPrivate(b *testing.B) {
	engines := make([]*Engine, runtime.GOMAXPROCS(0))
	pools := make([][]Access, len(engines))
	for g := range engines {
		engines[g] = stripedEngine()
		pools[g] = residentAccesses(engines[g])
	}
	runParallel(b, engines, pools)
}

// BenchmarkParallelGetHeavyDisjoint shares no stripe: goroutine g replays
// only the resident lines of the stripes that are g modulo the goroutine
// count (past the sixteen stripes, goroutines sixteen apart share), so over
// -Private it adds false sharing only.
func BenchmarkParallelGetHeavyDisjoint(b *testing.B) {
	e := stripedEngine()
	pools := make([][]Access, min(runtime.GOMAXPROCS(0), e.Stripes()))
	for _, a := range residentAccesses(e) {
		c := e.stripeOf(a.Addr) % len(pools)
		pools[c] = append(pools[c], a)
	}
	for c, pool := range pools {
		pools[c] = pool[:1<<(bits.Len(uint(len(pool)))-1)] // the replay index wraps with a mask
	}
	runParallel(b, []*Engine{e}, pools)
}

// BenchmarkParallelMixed measures full-pipeline scaling on the Zipf pools.
func BenchmarkParallelMixed(b *testing.B) {
	e := stripedEngine()
	runParallel(b, []*Engine{e}, warmMixed(e))
}

// BenchmarkParallelStorm is ParallelMixed while a rebalancer polls at a 1 ns
// interval, that is, one install after another of two target vectors in
// turn, for the whole timed region.
func BenchmarkParallelStorm(b *testing.B) {
	e := stripedEngine()
	pools := warmMixed(e)
	half := benchLines / benchParts
	r := e.StartRebalancerSource(time.Nanosecond, &flipSource{a: []int{half, half}, b: []int{half / 2, benchLines - half/2}})
	runParallel(b, []*Engine{e}, pools)
	b.StopTimer()
	r.Stop()
}

// observeAllocator returns a serve-sized allocator (16384 lines, 1/8
// sampling, 2048 tags a partition) whose shadow tags one Zipf pool has
// filled, and the pools.
func observeAllocator() (*alloc.Allocator, [][]Access) {
	a := alloc.New(alloc.Config{Parts: benchParts, Lines: 4 * benchLines, Seed: benchSeed})
	pools := sharedPools()
	for _, acc := range pools[0] {
		a.Observe(acc.Part, acc.Addr)
	}
	return a, pools
}

// BenchmarkParallelMixedAlloc is ParallelMixed with the online allocator
// beside the engine, as bench's engine-shared-mixed workload runs it: per op
// an Engine.Access, then an alloc.Allocator.Observe of the same access. Its
// excess over ParallelMixed is what a shared engine pays for the allocator:
// the sampling hash always, the allocator's mutex and a profiler touch one
// time in eight. Epochs close on rebalancer polls, and none runs here.
func BenchmarkParallelMixedAlloc(b *testing.B) {
	e := stripedEngine()
	pools := warmMixed(e)
	a, _ := observeAllocator()
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(ctr.Add(1) - 1)
		pool := pools[g%len(pools)]
		i := int(xrand.Mix64(uint64(g+1))) & (poolSize - 1)
		for pb.Next() {
			acc := pool[i&(poolSize-1)]
			e.Access(acc.Addr, acc.Part)
			a.Observe(acc.Part, acc.Addr)
			i++
		}
	})
}

// throughput replays the Zipf pools over a warm engine of the given stripe
// count, from the least multiple of GOMAXPROCS that is at least loadWorkers
// goroutines: four at -cpu 1, 2 and 4, and GOMAXPROCS of them above four.
// -cpu 4 times exactly four workers on any host.
func throughput(b *testing.B, stripes int) {
	e := benchEngine(stripes)
	pools := warmMixed(e)
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((loadWorkers + procs - 1) / procs)
	runParallel(b, []*Engine{e}, pools)
}

// BenchmarkThroughput1Stripe is the contention baseline: every worker on one
// lock.
func BenchmarkThroughput1Stripe(b *testing.B) { throughput(b, 1) }

// BenchmarkThroughput4Stripe spreads the same workers across four stripes.
func BenchmarkThroughput4Stripe(b *testing.B) { throughput(b, 4) }

// allocFreeOps are the engine's measured operations on the //fs:allocfree
// path (DESIGN.md §10), one goroutine each, over the Parallel rows' warm
// state. Each setup warms its structure and returns op, where op(n) performs
// the next n operations in an inline loop. BenchmarkAllocFree times op(b.N),
// and TestAllocFree holds op(1) to 0 allocations.
var allocFreeOps = []struct {
	name  string
	setup func(testing.TB) func(n int)
}{
	// One Engine.Access on the warm striped engine, walking a Zipf pool.
	{"EngineAccess", func(testing.TB) func(int) {
		e := stripedEngine()
		pool, k := warmMixed(e)[0], 0
		return func(n int) {
			for range n {
				a := pool[k]
				e.Access(a.Addr, a.Part)
				k = (k + 1) & (poolSize - 1)
			}
		}
	}},
	// Per request, batchFlush to a Batch.Access on the warm striped engine,
	// each flush submitting the next chunk of a Zipf pool.
	{"BatchAccess", func(testing.TB) func(int) {
		e := stripedEngine()
		pool, k := warmMixed(e)[0], 0
		batch := e.NewBatch()
		results := make([]core.AccessResult, batchFlush)
		batch.Access(pool[:batchFlush], results) // grow the batch scratch
		return func(n int) {
			for done := 0; done < n; done += batchFlush {
				batch.Access(pool[k:k+batchFlush], results)
				k = (k + batchFlush) & (poolSize - 1)
			}
		}
	}},
	// One GET as the server's byte store does it over a Locked handle: lock
	// the key's stripe, look the key up, access it, unlock. Resident set.
	{"LockedAccess", func(testing.TB) func(int) {
		e := stripedEngine()
		pool, k := residentAccesses(e), 0
		return func(n int) {
			for range n {
				a := pool[k]
				h := e.Lock(a.Addr)
				if h.Lookup(a.Addr) >= 0 {
					h.Access(a.Addr, a.Part)
				}
				h.Unlock()
				k = (k + 1) & (len(pool) - 1)
			}
		}
	}},
	// One alloc.Allocator.Observe on ParallelMixedAlloc's allocator.
	{"Observe", func(testing.TB) func(int) {
		a, pools := observeAllocator()
		pool, k := pools[0], 0
		return func(n int) {
			for range n {
				acc := pool[k]
				a.Observe(acc.Part, acc.Addr)
				k = (k + 1) & (poolSize - 1)
			}
		}
	}},
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
