package shardcache

import (
	"math"
	"sync"
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/hashing"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

const testSeed = 0x5ca1ab1e

// testConfig is the canonical comparison configuration: a 4096-line 16-way
// cache in the paper's hardware arrangement, split four ways.
func testConfig(shards int) Config {
	return Config{
		Lines:   4096,
		Ways:    16,
		Shards:  shards,
		Parts:   3,
		Ranking: futility.LRU,
		Seed:    testSeed,
	}
}

// testTargets sums exactly to the cache capacity, the regime the feedback
// controller is designed for.
func testTargets() []int { return []int{2048, 1280, 768} }

// monolithic builds the single-threaded equivalent of testConfig: the same
// total lines, associativity, ranking and feedback parameters in one
// core.Cache, over the array the engine's stripes split
// (TestStripesSplitTheMonolithicArray).
func monolithic(cfg Config) *core.Cache {
	arr := cachearray.NewSetAssoc(cfg.Lines, cfg.Ways, cachearray.IndexH3, cfg.Seed)
	ranker := futility.New(cfg.Ranking, cfg.Lines, cfg.Parts, xrand.Mix64(cfg.Seed^0x31))
	var ref futility.Ranker
	if rk := futility.Reference(cfg.Ranking); rk != cfg.Ranking {
		ref = futility.New(rk, cfg.Lines, cfg.Parts, xrand.Mix64(cfg.Seed^0x32))
	}
	return core.New(core.Config{
		Array:     arr,
		Ranker:    ranker,
		Reference: ref,
		Scheme:    core.NewFSFeedback(cfg.Parts, core.FSFeedbackConfig{}),
		Parts:     cfg.Parts,
	})
}

// TestShardedMatchesMonolithic is the tentpole acceptance test: the same
// deterministic workload driven concurrently through four shards and
// sequentially through one monolithic cache must land, per partition,
// at matching occupancies, miss ratios and AEF within tolerance. The two
// systems place every line in the same set but see different interleavings,
// split partition targets differently and rank with differently seeded
// rankers, so the comparison is statistical (shape), not bit-exact.
func TestShardedMatchesMonolithic(t *testing.T) {
	runShardedVsMonolithic(t, testConfig(4))
}

// TestStripedMatchesMonolithic repeats the equivalence sweep with lock
// striping enabled: four stripes per shard must not change what the engine
// measures, only how finely it locks.
func TestStripedMatchesMonolithic(t *testing.T) {
	cfg := testConfig(4)
	cfg.Stripes = 4
	runShardedVsMonolithic(t, cfg)
}

func runShardedVsMonolithic(t *testing.T, cfg Config) {
	t.Helper()
	e := New(cfg)
	e.SetTargets(testTargets())
	rounds, perRound := 8, 8192
	if testing.Short() {
		rounds, perRound = 4, 4096
	}
	sched := BuildSchedule(e, testSeed, 4, rounds, perRound)
	RunDeterministic(e, sched)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("sharded invariants: %v", err)
	}

	mono := monolithic(cfg)
	mono.SetTargets(testTargets())
	for _, a := range sched.Sequential() {
		mono.Access(a.Addr, a.Part, trace.NoNextUse)
	}
	if err := mono.CheckInvariants(); err != nil {
		t.Fatalf("monolithic invariants: %v", err)
	}

	snap := e.Snapshot()
	ms := mono.StatsSnapshot()
	if snap.Accesses != ms.Accesses {
		t.Fatalf("access counts differ: sharded %d, monolithic %d", snap.Accesses, ms.Accesses)
	}
	for p := 0; p < cfg.Parts; p++ {
		so, mo := snap.Parts[p].MeanOccupancy, ms.Parts[p].MeanOccupancy
		occTol := 0.06 * float64(cfg.Lines)
		if d := math.Abs(so - mo); d > occTol {
			t.Errorf("part %d occupancy: sharded %.1f vs monolithic %.1f (|Δ|=%.1f > %.1f)",
				p, so, mo, d, occTol)
		}
		sm, mm := snap.Parts[p].MissRate(), ms.Parts[p].MissRate()
		if d := math.Abs(sm - mm); d > 0.05 {
			t.Errorf("part %d miss ratio: sharded %.4f vs monolithic %.4f (|Δ|=%.4f > 0.05)",
				p, sm, mm, d)
		}
		sa, ma := snap.Parts[p].AEF(), ms.Parts[p].AEF()
		if d := math.Abs(sa - ma); d > 0.15 {
			t.Errorf("part %d AEF: sharded %.4f vs monolithic %.4f (|Δ|=%.4f > 0.15)",
				p, sa, ma, d)
		}
		t.Logf("part %d: occ %.1f/%.1f  miss %.4f/%.4f  aef %.4f/%.4f (sharded/monolithic)",
			p, so, mo, sm, mm, sa, ma)
	}
	// The merged snapshot's sizes and targets are cache-wide: targets must
	// re-sum to the global contract after the distributor has rebalanced.
	for p := 0; p < cfg.Parts; p++ {
		if got, want := snap.Parts[p].Target, testTargets()[p]; got != want {
			t.Errorf("part %d: cache-wide target %d after rebalances, want %d", p, got, want)
		}
	}
}

// TestShardRouting pins the router: every address lands on a valid shard,
// the mapping is stable, the stripe is the top bit-slice of the router's hash
// (hashing.ShardShift), and with a power-of-two split all shards receive a
// reasonable fraction of a uniform address stream.
func TestShardRouting(t *testing.T) {
	cfg := testConfig(4)
	cfg.Stripes = 4
	e := New(cfg)
	counts := make([]int, e.Shards())
	rng := xrand.New(7)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		addr := rng.Uint64()
		s := e.ShardOf(addr)
		if s < 0 || s >= e.Shards() {
			t.Fatalf("ShardOf(%#x) = %d out of range", addr, s)
		}
		if s2 := e.ShardOf(addr); s2 != s {
			t.Fatalf("ShardOf(%#x) unstable: %d then %d", addr, s, s2)
		}
		want := e.router.Hash(addr) >> hashing.ShardShift(cfg.Lines/cfg.Ways, cfg.Shards*cfg.Stripes)
		if g := e.stripeOf(addr); g != int(want) {
			t.Fatalf("stripeOf(%#x) = %d, the top bits of its hash say %d", addr, g, want)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < n/8 || c > n/2 {
			t.Errorf("shard %d received %d of %d uniform addresses (expected ~%d)", s, c, n, n/4)
		}
	}
}

// The stripes are a lock-split of one array, not an approximation of it: an
// address's stripe times the sets per stripe, plus its set within the stripe,
// is its set in the monolithic H3-indexed array built from the engine's seed.
func TestStripesSplitTheMonolithicArray(t *testing.T) {
	for _, geo := range []struct{ shards, stripes int }{{1, 1}, {4, 1}, {4, 4}, {2, 8}} {
		cfg := testConfig(geo.shards)
		cfg.Stripes = geo.stripes
		e := New(cfg)
		mono := cachearray.NewSetAssoc(cfg.Lines, cfg.Ways, cachearray.IndexH3, cfg.Seed)
		stripeSets := cfg.Lines / cfg.Ways / len(e.stripes)
		var buf []int
		rng := xrand.New(17)
		for i := 0; i < 100000; i++ {
			addr := rng.Uint64()
			g := e.stripeOf(addr)
			st := e.stripes[g]
			st.mu.Lock()
			buf = st.array.Candidates(addr, buf[:0])
			st.mu.Unlock()
			local := buf[0] / cfg.Ways
			buf = mono.Candidates(addr, buf[:0])
			if got, want := g*stripeSets+local, buf[0]/cfg.Ways; got != want {
				t.Fatalf("%d×%d: %#x in stripe %d set %d, global set %d; monolithic set %d",
					geo.shards, geo.stripes, addr, g, local, got, want)
			}
		}
	}
	// CheckInvariants holds resident lines to the same routing.
	e := New(testConfig(4))
	addr := uint64(1)
	for e.stripeOf(addr) == 0 {
		addr++
	}
	st := e.stripes[0]
	st.mu.Lock()
	st.cache.Access(addr, 0, trace.NoNextUse)
	st.mu.Unlock()
	if err := e.CheckInvariants(); err == nil {
		t.Fatalf("%#x, which routes to stripe %d, resident in stripe 0 passed the invariants", addr, e.stripeOf(addr))
	}
}

// TestAccessLinesLieInAddressSet pins the engine's line numbering: Line and
// EvictedLine from Access, Batch.Access and Batch.Each's Locked handles are
// lines of the address's stripe, in the ways of its set there (the low bits
// of its H3 hash over all sets) from set·Ways onwards; a hit reports the line
// the address's installing access reported, and a victim leaves the line its
// own install reported. A Lookup before a Locked access finds what the
// access then hits.
func TestAccessLinesLieInAddressSet(t *testing.T) {
	for _, geo := range []struct{ shards, stripes int }{{1, 1}, {4, 4}, {2, 8}} {
		cfg := testConfig(geo.shards)
		cfg.Stripes = geo.stripes
		e := New(cfg)
		e.SetTargets(testTargets())
		b := e.NewBatch()
		rng := xrand.New(23)
		pool := make([]uint64, 2*cfg.Lines)
		for i := range pool {
			pool[i] = rng.Uint64()
		}
		lineOf := map[uint64]int{}
		reqs := make([]Access, 32)
		results := make([]core.AccessResult, len(reqs))
		setsPerStripe := cfg.Lines / cfg.Ways / len(e.stripes)
		check := func(a Access, res core.AccessResult) {
			first := int(e.router.Hash(a.Addr)) % setsPerStripe * cfg.Ways
			if res.Line < first || res.Line >= first+cfg.Ways {
				t.Fatalf("%d×%d: %#x (set %d) reported line %d", geo.shards, geo.stripes, a.Addr, first/cfg.Ways, res.Line)
			}
			if res.Evicted {
				if res.EvictedLine < first || res.EvictedLine >= first+cfg.Ways {
					t.Fatalf("%d×%d: %#x (set %d) evicted line %d", geo.shards, geo.stripes, a.Addr, first/cfg.Ways, res.EvictedLine)
				}
				if l, ok := lineOf[res.EvictedAddr]; !ok || l != res.EvictedLine {
					t.Fatalf("%d×%d: victim %#x evicted from line %d, installed at %d (known %v)",
						geo.shards, geo.stripes, res.EvictedAddr, res.EvictedLine, l, ok)
				}
				delete(lineOf, res.EvictedAddr)
			}
			if l, ok := lineOf[a.Addr]; ok != res.Hit || ok && l != res.Line {
				t.Fatalf("%d×%d: %#x hit %v at line %d, installed at %d (known %v)",
					geo.shards, geo.stripes, a.Addr, res.Hit, res.Line, l, ok)
			}
			lineOf[a.Addr] = res.Line
		}
		hits := 0
		for round := 0; round < 2000; round++ {
			for i := range reqs {
				reqs[i] = Access{Addr: pool[rng.Intn(len(pool))], Part: rng.Intn(cfg.Parts)}
			}
			switch round % 3 {
			case 0:
				for i := range reqs {
					results[i] = e.Access(reqs[i].Addr, reqs[i].Part)
				}
			case 1:
				b.Access(reqs, results)
			default:
				b.Each(reqs, func(h Locked, idx []int32) {
					for _, i := range idx {
						a := reqs[i]
						l := h.Lookup(a.Addr)
						res := h.Access(a.Addr, a.Part)
						if l >= 0 != res.Hit || l >= 0 && l != res.Line {
							t.Fatalf("%d×%d: %#x looked up at line %d, hit %v at line %d", geo.shards, geo.stripes, a.Addr, l, res.Hit, res.Line)
						}
						results[i] = res
					}
				})
			}
			for i := range reqs {
				check(reqs[i], results[i])
				if results[i].Hit {
					hits++
				}
			}
		}
		if hits == 0 || len(lineOf) != cfg.Lines {
			t.Fatalf("%d×%d: %d hits, %d resident lines of %d", geo.shards, geo.stripes, hits, len(lineOf), cfg.Lines)
		}
	}
}

// TestRebalanceRedistributes pins the global distributor: after heavily
// skewed per-shard demand for a partition, Rebalance must hand the loaded
// shard a strictly larger slice of that partition's global target than the
// idle shards get, while per-partition shard targets keep summing exactly
// to the cache-wide target.
func TestRebalanceRedistributes(t *testing.T) {
	cfg := testConfig(4)
	e := New(cfg)
	targets := testTargets()
	e.SetTargets(targets)

	// Drive traffic for partition 0 at one shard only: find addresses
	// routing to shard 0 and access them repeatedly.
	rng := xrand.New(42)
	sent := 0
	for sent < 4096 {
		addr := rng.Uint64() % (1 << 20)
		if e.ShardOf(addr) != 0 {
			continue
		}
		e.Access(addr, 0)
		sent++
	}
	e.Rebalance()

	snaps := e.ShardSnapshots()
	for p := 0; p < cfg.Parts; p++ {
		sum := 0
		for _, s := range snaps {
			sum += s.Parts[p].Target
		}
		if sum != targets[p] {
			t.Errorf("part %d shard targets sum to %d, want cache-wide %d", p, sum, targets[p])
		}
	}
	hot := snaps[0].Parts[0].Target
	for i := 1; i < len(snaps); i++ {
		if cold := snaps[i].Parts[0].Target; hot <= cold {
			t.Errorf("shard 0 (all of partition 0's demand) got target %d, shard %d got %d",
				hot, i, cold)
		}
	}
}

// Demand enters the distributor as a share of the pass, not as a count: two
// engines in the same state whose passes saw the same insertion split, one
// ten times as many insertions as the other (a longer interval, a faster
// engine), must apportion every partition identically.
func TestRebalanceIgnoresPassLength(t *testing.T) {
	build := func(scale uint64) *Engine {
		e := New(testConfig(4))
		e.SetTargets(testTargets())
		rng := xrand.New(43)
		for i := 0; i < 3*e.Lines(); i++ {
			e.Access(rng.Uint64()%(1<<13), i%3)
		}
		e.Rebalance()
		for g, st := range e.stripes {
			st.mu.Lock()
			for p := range st.demand {
				st.demand[p] = scale * uint64(1+(g+p)%5)
			}
			st.mu.Unlock()
		}
		e.Rebalance()
		return e
	}
	short, long := build(7).ShardSnapshots(), build(70).ShardSnapshots()
	for sh := range short {
		for p := range short[sh].Parts {
			if got, want := long[sh].Parts[p].Target, short[sh].Parts[p].Target; got != want {
				t.Errorf("shard %d partition %d: target %d after the long pass, %d after the short one", sh, p, got, want)
			}
		}
	}
}

// TestLockDisciplineSmoke is the runtime counterpart of the fslint lockcheck
// annotations on Engine and shard (//fs:guardedby, //fs:lockorder): a seeded
// free-running mix of access workers, snapshot readers and rebalances hammers
// every guarded field concurrently, so a missing Lock that slipped past the
// static analyzer surfaces as a detector report when this runs under -race.
// CI's race job runs it explicitly; it pairs with the full fslint run, which
// includes lockcheck, in the test job.
func TestLockDisciplineSmoke(t *testing.T) {
	cfg := testConfig(4)
	e := New(cfg)
	e.SetTargets(testTargets())

	const workers = 4
	perWorker := 4096
	if testing.Short() {
		perWorker = 1024
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//fslint:ignore determinism lock-discipline smoke: free-running workers share shards on purpose; only race-freedom and accounting are asserted
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(testSeed ^ uint64(w)<<8)
			for i := 0; i < perWorker; i++ {
				addr := rng.Uint64() % (1 << 18)
				part := int(rng.Uint64() % uint64(cfg.Parts))
				e.Access(addr, part)
				// Periodic rebalances from every worker exercise the
				// tmu-then-mu nested acquisition (//fs:lockorder) while
				// other workers hold individual shard locks.
				if i%512 == 511 {
					e.Rebalance()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	//fslint:ignore determinism lock-discipline smoke: snapshot readers race against writers by design
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = e.Snapshot()
				_ = e.ShardSnapshots()
			}
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent smoke: %v", err)
	}
	if got := e.Snapshot().Accesses; got != uint64(workers*perWorker) {
		t.Fatalf("accesses = %d, want %d (lost updates?)", got, workers*perWorker)
	}
}
