// Package perfbench is the repository's performance-measurement harness: a
// registry of named micro- and macro-benchmarks over the hot replacement
// pipeline (H3 hashing, array lookups and zcache walks, ost tree and
// recency-index operations, coarse-timestamp ranking, core.Cache.Access
// hit/miss paths, whole experiment cells) plus a
// machine-readable report format (BENCH_<date>.json) that records the repo's
// performance trajectory.
//
// The same benchmark bodies back two consumers:
//
//   - `go test -bench` wrappers in internal/ost, internal/futility and
//     internal/core (so the standard toolchain, -benchmem and profiles all
//     work), and
//   - cmd/fsbench, which runs the registry standalone and emits JSON for CI
//     trend tracking and advisory regression comparison.
//
// The steady-state contract (DESIGN.md §10): every benchmark whose name ends
// in the "0-alloc" marker set below must report 0 allocs/op — the access
// path may not allocate once caches and trees are warm.
package perfbench

import (
	"testing"

	"fscache/internal/alloc"
	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/hashing"
	"fscache/internal/ost"
	"fscache/internal/server"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// Benchmark is one registered measurement.
type Benchmark struct {
	// Name is the registry id, e.g. "core/access-miss-lru".
	Name string
	// Doc is a one-line description.
	Doc string
	// PerAccess marks benchmarks whose op is exactly one cache access, so
	// accesses/sec = 1e9 / (ns/op).
	PerAccess bool
	// ZeroAlloc marks benchmarks bound by the steady-state zero-allocation
	// contract.
	ZeroAlloc bool
	// Macro marks whole-experiment benchmarks (skipped by fsbench -quick
	// unless -macro is set).
	Macro bool
	// Parallel marks b.RunParallel bodies whose throughput depends on
	// GOMAXPROCS: fsbench sweeps them across -procs settings and records one
	// result row per setting.
	Parallel bool
	// MinScale gates scaling efficiency for Parallel benchmarks: within one
	// fsbench sweep, throughput at the highest -procs setting P must be at
	// least MinScale × min(P, NumCPU) × the 1-proc throughput. Zero disables
	// the gate. 0.375 at P=8 on an 8-core box is the ≥3× acceptance bar;
	// min(P, NumCPU) keeps the bound honest on smaller machines.
	MinScale float64
	// Tol is the fractional ns/op regression band fsbench -compare allows
	// against a baseline captured on a matching environment. Zero means the
	// default band.
	Tol float64
	// Fn is the benchmark body.
	Fn func(b *testing.B)
}

// benchSeed roots all benchmark pseudo-randomness (fixed: benchmarks replay
// identical work across runs, so ns/op deltas are real, not workload noise).
const benchSeed = 0xbe7c4

// Registry returns every registered benchmark, in stable order.
func Registry() []Benchmark {
	return []Benchmark{
		{Name: "hashing/h3", Doc: "H3.Hash onto 4096 buckets: eight byte-sliced table lookups XORed together",
			ZeroAlloc: true, Fn: H3Hash},
		{Name: "cachearray/setassoc-lookup", Doc: "SetAssoc.Lookup, 4096 lines 16-way H3-indexed, resident and absent addresses alternating",
			ZeroAlloc: true, Fn: SetAssocLookup},
		{Name: "cachearray/zcache-walk", Doc: "ZCache.Candidates on a full Z4/52 of 4096 lines: up to 52 nodes, ~76 H3 hashes, bitmap dedup",
			ZeroAlloc: true, Fn: ZCacheWalk},
		{Name: "ost/insert-delete", Doc: "treap steady-state Insert+Delete pair at 4096 keys (a hit under LFU/OPT/SLRU)",
			ZeroAlloc: true, Fn: OSTInsertDelete},
		{Name: "ost/rank", Doc: "treap Rank query at 4096 keys (one candidate's futility under LFU/OPT/SLRU)",
			ZeroAlloc: true, Fn: OSTRank},
		{Name: "ost/select", Doc: "treap Select query at 4096 keys (SLRU's protected-segment demotion)",
			ZeroAlloc: true, Fn: OSTSelect},
		{Name: "futility/exact-lru-hit", Doc: "ExactLRU OnHit at 4096 lines: two liveness-bit flips, each with its word-count updates, compaction amortised in",
			ZeroAlloc: true, Fn: ExactLRUHit},
		{Name: "futility/exact-lru-rank", Doc: "ExactLRU FutilityRaw at 4096 lines: a masked popcount plus a prefix sum over word counts",
			ZeroAlloc: true, Fn: ExactLRURank},
		{Name: "recency/worst", Doc: "recency.Index Worst at 4096 lines on a static index: the descent over word counts plus a trailing-zeros",
			ZeroAlloc: true, Fn: RecencyWorst},
		{Name: "alloc/profiler-touch", Doc: "alloc.Profiler Touch at shift 0 (exact Mattson), 4096 tags over 8192 lines: a probe of the open-addressed tag table, then a rank + hit or a worst-tag reuse (with its backward-shift removal) on the recency index",
			ZeroAlloc: true, Fn: ProfilerTouch},
		{Name: "alloc/profiler-touch-sampled", Doc: "alloc.Profiler Touch at shift 3, 4096 tags (32768 estimated lines) over 65536 lines: seven references in eight stop at the sampling hash",
			ZeroAlloc: true, Fn: ProfilerTouchSampled},
		{Name: "alloc/observe-parallel", Doc: "Allocator.Observe from every goroutine, serve-sized (16384 lines, 1/8 sampling, 2048 tags a partition): the atomic count and the hash always, the mutex and a profiler touch one time in eight, epoch closes amortised in",
			Parallel: true, Tol: 0.60, Fn: ObserveParallel},
		{Name: "coarsets/onhit", Doc: "CoarseTS OnHit (tick + retag)",
			ZeroAlloc: true, Fn: CoarseOnHit},
		{Name: "futility/coarse-distance", Doc: "CoarseTS Distance: the bare 8-bit timestamp subtraction the raw-only FS decision pays per candidate",
			ZeroAlloc: true, Fn: CoarseDistance},
		{Name: "coarsets/raw", Doc: "CoarseTS Raw timestamp distance + histogram observe",
			ZeroAlloc: true, Fn: CoarseRaw},
		{Name: "coarsets/futility", Doc: "CoarseTS Futility quantile (empirical CDF position)",
			ZeroAlloc: true, Fn: CoarseFutility},
		{Name: "core/access-hit-lru", Doc: "Cache.Access hit path, exact-LRU FS config",
			PerAccess: true, ZeroAlloc: true, Fn: AccessHitLRU},
		{Name: "core/access-miss-lru", Doc: "Cache.Access miss path (evict+install), exact-LRU FS config",
			PerAccess: true, ZeroAlloc: true, Fn: AccessMissLRU},
		{Name: "core/access-miss-z52", Doc: "Cache.Access miss path over a Z4/52 zcache, exact-LRU FS config: walk, 52 slot compares, one rank per partition, relocations",
			PerAccess: true, ZeroAlloc: true, Fn: AccessMissZ52},
		{Name: "core/access-miss-z52-observed", Doc: "access-miss-z52 under a no-op decision observer, which keeps all 52 ranks: what the scenario recorder pays",
			PerAccess: true, ZeroAlloc: true, Fn: AccessMissZ52Observed},
		{Name: "core/access-hit-coarse", Doc: "Cache.Access hit path, coarse-TS FS config (§V hardware)",
			PerAccess: true, ZeroAlloc: true, Fn: AccessHitCoarse},
		{Name: "core/access-miss-coarse", Doc: "Cache.Access miss path, coarse-TS FS config (§V hardware)",
			PerAccess: true, ZeroAlloc: true, Fn: AccessMissCoarse},
		{Name: "core/access-hit-coarse-noref", Doc: "Cache.Access hit path, coarse-TS FS config, unmeasured: three engine stripes in four",
			PerAccess: true, ZeroAlloc: true, Fn: AccessHitCoarseNoRef},
		{Name: "core/access-miss-coarse-noref", Doc: "Cache.Access miss path, coarse-TS FS config, unmeasured: three engine stripes in four",
			PerAccess: true, ZeroAlloc: true, Fn: AccessMissCoarseNoRef},
		{Name: "shardcache/throughput-1shard-4workers", Doc: "concurrent Engine.Access, 4 workers contending on one shard",
			PerAccess: true, Fn: ShardedThroughput1},
		{Name: "shardcache/throughput-4shard-4workers", Doc: "concurrent Engine.Access, 4 workers across 4 shards",
			PerAccess: true, Fn: ShardedThroughput4},
		// The parallel rows carry wider ns/op bands than the serial ones:
		// their per-op time depends on how the scheduler interleaves the
		// competing goroutines (the storm row most of all, racing a
		// back-to-back rebalance loop), so the tight ratchets for them are
		// the scaling-efficiency band and the allocation count, not ns/op.
		// The mixed row's band went from 0.30 to 0.25 when the raw-only FS
		// decision took 35 % off its 1-proc figure (344 → 221 ns) and left the
		// p16 − p1 overhead where it was (136 → 124 ns): a ratio band reads a
		// faster serial path as worse scaling (0.72× → 0.64× on two vCPUs).
		{Name: "shardcache/parallel-get-heavy", Doc: "striped Engine.Access scaling, resident working set (~all hits)",
			PerAccess: true, Parallel: true, MinScale: 0.375, Tol: 0.50, Fn: ParallelGetHeavy},
		{Name: "shardcache/parallel-get-heavy-private", Doc: "parallel-get-heavy with an engine per goroutine: nothing shared, the floor the machine sets",
			PerAccess: true, Parallel: true, Tol: 0.50, Fn: ParallelGetHeavyPrivate},
		{Name: "shardcache/parallel-get-heavy-disjoint", Doc: "parallel-get-heavy with each goroutine confined to its own shards of the one engine: no stripe shared, so over -private it adds false sharing only",
			PerAccess: true, Parallel: true, Tol: 0.50, Fn: ParallelGetHeavyDisjoint},
		{Name: "shardcache/parallel-mixed", Doc: "striped Engine.Access scaling, Zipf hit/miss mix",
			PerAccess: true, Parallel: true, MinScale: 0.25, Tol: 0.60, Fn: ParallelMixed},
		{Name: "shardcache/parallel-storm", Doc: "striped Engine.Access scaling under a back-to-back Rebalance storm",
			PerAccess: true, Parallel: true, MinScale: 0.25, Tol: 1.0, Fn: ParallelStorm},
		{Name: "shardcache/batch-access", Doc: "Batch.Access per request, 64-request flushes on a warm striped engine",
			PerAccess: true, ZeroAlloc: true, Fn: BatchAccess},
		{Name: "server/frame-codec", Doc: "wire frame encode + read + parse round trip",
			ZeroAlloc: true, Fn: server.BenchFrameCodec},
		{Name: "server/admission-decide", Doc: "degradation-ladder walk, calm regime (per-request admission overhead)",
			ZeroAlloc: true, Fn: server.BenchAdmissionDecide},
		{Name: "server/loopback-rpc", Doc: "synchronous GET round trip over TCP loopback against a live server",
			ZeroAlloc: true, Fn: server.BenchLoopbackRPC},
		{Name: "server/loopback-pipelined", Doc: "loopback-rpc with 16 GETs per client write, per request: one engine batch, one response write",
			ZeroAlloc: true, Fn: server.BenchLoopbackPipelined},
		{Name: "server/store-set-get", Doc: "byte store overwrite + read of a 1 KiB value: in-place Put, Get copying out under the shard lock",
			ZeroAlloc: true, Fn: server.BenchStoreSetGet},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range Registry() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// ---- hashing, cachearray ----

// H3Hash measures one H3 evaluation over well-spread keys.
func H3Hash(b *testing.B) {
	h := hashing.NewH3(benchSeed, cacheLines)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += h.Hash(uint64(i) * 0x9e3779b97f4a7c15)
	}
	benchSink = sink
}

// SetAssocLookup measures the array's share of a hit (even i: one of the
// resident addresses) and of a miss's first step (odd i: an absent one).
func SetAssocLookup(b *testing.B) {
	arr := setAssoc16()
	// Even addresses go in while their set has a free way, to half the
	// capacity; the odd neighbour of each stays absent.
	var addrs []uint64
	for addr := uint64(2); len(addrs) < cacheLines/2; addr += 2 {
		for _, line := range arr.Candidates(addr, nil) {
			if _, valid := arr.AddrOf(line); !valid {
				arr.Install(addr, line, nil)
				addrs = append(addrs, addr)
				break
			}
		}
	}
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += arr.Lookup(addrs[i%len(addrs)] | uint64(i&1))
	}
	benchSink = uint64(sink)
}

// ZCacheWalk measures the replacement walk alone on a full array; nothing is
// installed, so every iteration walks the same contents.
func ZCacheWalk(b *testing.B) {
	z := cachearray.NewZCache(cacheLines, 4, 3, benchSeed)
	cands := make([]int, 0, z.MaxCandidates())
	for addr := uint64(1); addr <= 4*cacheLines; addr++ {
		if z.Lookup(addr) < 0 {
			cands = z.Candidates(addr, cands[:0])
			z.Install(addr, cands[int(addr)%len(cands)], nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands = z.Candidates(uint64(i)|1<<40, cands[:0])
	}
	benchSink = uint64(len(cands))
}

// ---- ost.Tree ----

const treeKeys = 4096

func filledTree(n int) (*ost.Tree, []ost.Key) {
	t := ost.New(benchSeed)
	rng := xrand.New(benchSeed ^ 0x7ee)
	keys := make([]ost.Key, n)
	for i := range keys {
		keys[i] = ost.Key{Primary: rng.Uint64(), Tie: uint64(i)}
		t.Insert(keys[i], int64(i))
	}
	return t, keys
}

// OSTInsertDelete measures a steady-state Insert+Delete pair: the tree stays
// at treeKeys entries, so recycled nodes keep the pair allocation-free.
func OSTInsertDelete(b *testing.B) {
	t, keys := filledTree(treeKeys)
	rng := xrand.New(benchSeed ^ 0x1d)
	next := uint64(1) << 40
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := int(rng.Uint64() % treeKeys)
		t.Delete(keys[j])
		next++
		keys[j] = ost.Key{Primary: next, Tie: uint64(j)}
		t.Insert(keys[j], int64(j))
	}
}

// OSTRank measures rank queries against a static tree.
func OSTRank(b *testing.B) {
	t, keys := filledTree(treeKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.Rank(keys[i%treeKeys]); !ok {
			b.Fatal("key missing")
		}
	}
}

// OSTSelect measures order-statistic selection against a static tree.
func OSTSelect(b *testing.B) {
	t, _ := filledTree(treeKeys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Select(i%treeKeys + 1)
	}
}

// ---- futility.ExactLRU ----

const exactLines = 4096

// filledExactLRU returns a one-partition ranker that has been through enough
// hits in a fixed pseudo-random order to reach its final capacity, so the
// timed loops below compact but never grow.
func filledExactLRU() (*futility.ExactLRU, uint64) {
	r := futility.NewExactLRU(exactLines, 1)
	seq := uint64(0)
	for l := 0; l < exactLines; l++ {
		seq++
		r.OnInsert(l, 0, futility.Context{Seq: seq})
	}
	rng := xrand.New(benchSeed ^ 0x1a0)
	for i := 0; i < 4*exactLines; i++ {
		seq++
		r.OnHit(rng.Intn(exactLines), 0, futility.Context{Seq: seq})
	}
	return r, seq
}

// ExactLRUHit measures the recency index's hit path: retire the line's slot,
// take the next one, and every cap−4096 hits renumber the partition.
func ExactLRUHit(b *testing.B) {
	r, seq := filledExactLRU()
	rng := xrand.New(benchSeed ^ 0x1a1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		r.OnHit(rng.Intn(exactLines), 0, futility.Context{Seq: seq})
	}
}

// ExactLRURank measures the per-candidate rank query of the miss path.
func ExactLRURank(b *testing.B) {
	r, _ := filledExactLRU()
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, raw := r.FutilityRaw(i%exactLines, 0)
		sink += raw
	}
	benchSink = sink
}

// RecencyWorst measures the least-recent-line query (chooseFull's, once per
// partition, and the profiler's when its tag table is full).
func RecencyWorst(b *testing.B) {
	r, _ := filledExactLRU()
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += r.Worst(0)
	}
	benchSink = uint64(sink)
}

// ---- alloc.Profiler ----

const profilerTags = 4096

// profilerTouch times Touch over a uniform footprint of twice the tracked
// population (profilerTags << shift lines are tracked at once), so about half
// the sampled references reuse a tracked line and half reuse the least recent
// tag. The warm-up fills the tag table and takes the index to its final
// capacity.
func profilerTouch(b *testing.B, shift uint) {
	p := alloc.NewProfiler(profilerTags, shift, benchSeed)
	lines := uint64(2*profilerTags) << shift
	rng := xrand.New(benchSeed ^ 0xa110c)
	for i := uint64(0); i < 4*lines; i++ {
		p.Touch(rng.Uint64() % lines)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Touch(rng.Uint64() % lines)
	}
	benchSink = p.SampledCount()
}

// ProfilerTouch measures one exact (shift 0) profiler observation.
func ProfilerTouch(b *testing.B) { profilerTouch(b, 0) }

// ProfilerTouchSampled measures one reference offered to a 1/8-sampling
// profiler: the sampling hash always, the observation one time in eight.
func ProfilerTouchSampled(b *testing.B) { profilerTouch(b, 3) }

// benchSink keeps results the timed loops compute from being optimised away.
var benchSink uint64

// ---- futility.CoarseTS ----

const coarseLines = 4096

func filledCoarse() *futility.CoarseTS {
	c := futility.NewCoarseTS(coarseLines, 2)
	for l := 0; l < coarseLines; l++ {
		c.OnInsert(l, l&1, futility.Context{Seq: uint64(l)})
	}
	return c
}

// CoarseOnHit measures the hit-path retag (partition tick + timestamp store).
func CoarseOnHit(b *testing.B) {
	c := filledCoarse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := i % coarseLines
		c.OnHit(l, l&1, futility.Context{Seq: uint64(i)})
	}
}

// CoarseDistance measures the raw 8-bit distance read alone.
func CoarseDistance(b *testing.B) {
	c := filledCoarse()
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := i % coarseLines
		sink += c.Distance(l, l&1)
	}
	benchSink = sink
}

// CoarseRaw measures the raw 8-bit distance read (plus histogram observe).
func CoarseRaw(b *testing.B) {
	c := filledCoarse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := i % coarseLines
		_ = c.Raw(l, l&1)
	}
}

// CoarseFutility measures the self-calibrating quantile estimate.
func CoarseFutility(b *testing.B) {
	c := filledCoarse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := i % coarseLines
		_ = c.Futility(l, l&1)
	}
}

// ---- core.Cache.Access ----

const (
	cacheLines = 4096
	cacheParts = 2
)

// setAssoc16 is the acceptance configuration's array: 16-way, H3-indexed.
func setAssoc16() *cachearray.SetAssoc {
	return cachearray.NewSetAssoc(cacheLines, 16, cachearray.IndexH3, benchSeed)
}

// benchCache assembles arr under feedback Futility Scaling, ranked by kind;
// over setAssoc16 that is the acceptance configuration. A kind that needs a
// separate reference ranker gets one when measured, and none otherwise.
func benchCache(arr cachearray.Array, kind futility.Kind, measured bool) *core.Cache {
	cfg := core.Config{
		Array:  arr,
		Ranker: futility.New(kind, cacheLines, cacheParts, benchSeed^0x9a),
		Scheme: core.NewFSFeedback(cacheParts, core.FSFeedbackConfig{}),
		Parts:  cacheParts,
	}
	if rk := futility.Reference(kind); rk != kind && measured {
		cfg.Reference = futility.New(rk, cacheLines, cacheParts, benchSeed^0x4ef)
	} else {
		cfg.Unmeasured = rk != kind
	}
	c := core.New(cfg)
	targets := make([]int, cacheParts)
	for i := range targets {
		targets[i] = cacheLines / cacheParts
	}
	c.SetTargets(targets)
	return c
}

// fillCache drives the cache to steady state: 4× its capacity in distinct
// insertions so every set is full and the miss path always evicts.
func fillCache(c *core.Cache) uint64 {
	addr := uint64(1)
	for i := 0; i < 4*cacheLines; i++ {
		c.Access(addr, int(addr)&1, trace.NoNextUse)
		addr++
	}
	return addr
}

// residentSet fills an empty cache with a small working set that stays
// resident (512 addrs over 256 sets never approach 16-way capacity), so
// every subsequent access hits.
func residentSet(c *core.Cache) []uint64 {
	addrs := make([]uint64, 512)
	for i := range addrs {
		addrs[i] = uint64(i+1) << 8
		c.Access(addrs[i], i&1, trace.NoNextUse)
	}
	return addrs
}

func accessHit(b *testing.B, kind futility.Kind, measured bool) {
	c := benchCache(setAssoc16(), kind, measured)
	addrs := residentSet(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.Access(addrs[i%len(addrs)], i&1, trace.NoNextUse)
		if !res.Hit {
			b.Fatal("expected steady-state hit")
		}
	}
}

func accessMiss(b *testing.B, arr cachearray.Array, kind futility.Kind, measured bool) {
	missLoop(b, benchCache(arr, kind, measured))
}

func missLoop(b *testing.B, c *core.Cache) {
	addr := fillCache(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr++
		res := c.Access(addr, int(addr)&1, trace.NoNextUse)
		if res.Hit {
			b.Fatal("expected steady-state miss")
		}
	}
}

// AccessHitLRU measures the hit path with the exact LRU ranker (two liveness
// flips per hit).
func AccessHitLRU(b *testing.B) { accessHit(b, futility.LRU, true) }

// AccessMissLRU measures the miss path with the exact LRU ranker: candidate
// ranking, FS decision, eviction and install. This is the acceptance
// benchmark for the zero-allocation replacement pipeline.
func AccessMissLRU(b *testing.B) { accessMiss(b, setAssoc16(), futility.LRU, true) }

// AccessMissZ52 measures the miss path at the paper's high-associativity
// point: a Z4/52 zcache under the exact LRU ranker.
func AccessMissZ52(b *testing.B) {
	accessMiss(b, cachearray.NewZCache(cacheLines, 4, 3, benchSeed), futility.LRU, true)
}

// AccessMissZ52Observed is AccessMissZ52 with a decision observer installed,
// so every candidate is ranked as the observer contract requires.
func AccessMissZ52Observed(b *testing.B) {
	c := benchCache(cachearray.NewZCache(cacheLines, 4, 3, benchSeed), futility.LRU, true)
	c.SetDecisionObserver(func([]core.Candidate, int, int, bool) {})
	missLoop(b, c)
}

// AccessHitCoarse measures the hit path in the paper's hardware
// configuration (coarse timestamps + exact-LRU reference).
func AccessHitCoarse(b *testing.B) { accessHit(b, futility.CoarseLRU, true) }

// AccessMissCoarse measures the miss path in the hardware configuration.
func AccessMissCoarse(b *testing.B) { accessMiss(b, setAssoc16(), futility.CoarseLRU, true) }

// AccessHitCoarseNoRef and AccessMissCoarseNoRef measure the stripes the
// engine does not sample for AEF: coarse timestamps, no reference ranker.
func AccessHitCoarseNoRef(b *testing.B)  { accessHit(b, futility.CoarseLRU, false) }
func AccessMissCoarseNoRef(b *testing.B) { accessMiss(b, setAssoc16(), futility.CoarseLRU, false) }
