package shardcache

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/hashing"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

const testSeed = 0x5ca1ab1e

// testConfig is the canonical comparison configuration: a 4096-line 16-way
// cache in the paper's hardware arrangement, split into stripes lock domains.
func testConfig(stripes int) Config {
	return Config{
		Lines:   4096,
		Ways:    16,
		Stripes: stripes,
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
// deterministic workload driven concurrently through four stripes and
// sequentially through one monolithic cache must land, per partition,
// at matching occupancies, miss ratios and AEF within tolerance. The two
// systems place every line in the same set but see different interleavings,
// split partition targets differently and rank with differently seeded
// rankers, so the comparison is statistical (shape), not bit-exact.
func TestShardedMatchesMonolithic(t *testing.T) {
	runShardedVsMonolithic(t, testConfig(4))
}

// TestStripedMatchesMonolithic repeats the equivalence sweep with finer
// locking: sixteen stripes, four to a worker, must not change what the
// engine measures, only how finely it locks.
func TestStripedMatchesMonolithic(t *testing.T) {
	runShardedVsMonolithic(t, testConfig(16))
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
		t.Fatalf("striped invariants: %v", err)
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
		t.Fatalf("access counts differ: striped %d, monolithic %d", snap.Accesses, ms.Accesses)
	}
	for p := 0; p < cfg.Parts; p++ {
		so, mo := snap.Parts[p].MeanOccupancy, ms.Parts[p].MeanOccupancy
		occTol := 0.06 * float64(cfg.Lines)
		if d := math.Abs(so - mo); d > occTol {
			t.Errorf("part %d occupancy: striped %.1f vs monolithic %.1f (|Δ|=%.1f > %.1f)",
				p, so, mo, d, occTol)
		}
		sm, mm := snap.Parts[p].MissRate(), ms.Parts[p].MissRate()
		if d := math.Abs(sm - mm); d > 0.05 {
			t.Errorf("part %d miss ratio: striped %.4f vs monolithic %.4f (|Δ|=%.4f > 0.05)",
				p, sm, mm, d)
		}
		sa, ma := snap.Parts[p].AEF(), ms.Parts[p].AEF()
		if d := math.Abs(sa - ma); d > 0.15 {
			t.Errorf("part %d AEF: striped %.4f vs monolithic %.4f (|Δ|=%.4f > 0.15)",
				p, sa, ma, d)
		}
		t.Logf("part %d: occ %.1f/%.1f  miss %.4f/%.4f  aef %.4f/%.4f (striped/monolithic)",
			p, so, mo, sm, mm, sa, ma)
	}
	// The merged snapshot's sizes and targets are cache-wide: the stripes'
	// targets must re-sum to the global contract.
	for p := 0; p < cfg.Parts; p++ {
		if got, want := snap.Parts[p].Target, testTargets()[p]; got != want {
			t.Errorf("part %d: cache-wide target %d, want %d", p, got, want)
		}
	}
}

// TestShardRouting pins the router: every address lands on a valid stripe,
// the mapping is stable, the stripe is the top bit-slice of the router's hash
// (hashing.ShardShift), and with a power-of-two split every stripe receives a
// reasonable fraction of a uniform address stream.
func TestShardRouting(t *testing.T) {
	cfg := testConfig(16)
	e := New(cfg)
	counts := make([]int, e.Stripes())
	rng := xrand.New(7)
	const n = 1 << 14
	shift := hashing.ShardShift(cfg.Lines/cfg.Ways, cfg.Stripes)
	for i := 0; i < n; i++ {
		addr := rng.Uint64()
		g := e.stripeOf(addr)
		if g < 0 || g >= e.Stripes() {
			t.Fatalf("stripeOf(%#x) = %d out of range", addr, g)
		}
		if g2 := e.stripeOf(addr); g2 != g {
			t.Fatalf("stripeOf(%#x) unstable: %d then %d", addr, g, g2)
		}
		if want := int(e.router.Hash(addr) >> shift); g != want {
			t.Fatalf("stripeOf(%#x) = %d, the top bits of its hash say %d", addr, g, want)
		}
		counts[g]++
	}
	per := n / len(counts)
	for g, c := range counts {
		if c < per/2 || c > 2*per {
			t.Errorf("stripe %d received %d of %d uniform addresses (expected ~%d)", g, c, n, per)
		}
	}
}

// TestShardsMultiplyStripes pins what Config.Shards is kept for: Shards S
// with Stripes K builds, stripe for stripe, the engine Stripes S·K builds.
func TestShardsMultiplyStripes(t *testing.T) {
	split := testConfig(4)
	split.Shards = 4
	a, b := New(split), New(testConfig(16))
	a.SetTargets(testTargets())
	b.SetTargets(testTargets())
	rng := xrand.New(31)
	for i := 0; i < 4*split.Lines; i++ {
		addr, part := rng.Uint64()%(1<<14), rng.Intn(split.Parts)
		if ra, rb := a.Access(addr, part), b.Access(addr, part); ra != rb {
			t.Fatalf("access %d (%#x): %+v with Shards 4 × Stripes 4, %+v with Stripes 16", i, addr, ra, rb)
		}
	}
	a.SetTargets([]int{768, 1280, 2048})
	b.SetTargets([]int{768, 1280, 2048})
	for i := 0; i < split.Lines; i++ {
		addr, part := rng.Uint64()%(1<<14), rng.Intn(split.Parts)
		if ra, rb := a.Access(addr, part), b.Access(addr, part); ra != rb {
			t.Fatalf("access %d after retargeting (%#x): %+v with Shards 4 × Stripes 4, %+v with Stripes 16", i, addr, ra, rb)
		}
	}
	sa, sb := a.StripeSnapshots(), b.StripeSnapshots()
	if len(sa) != len(sb) {
		t.Fatalf("%d stripes with Shards 4 × Stripes 4, %d with Stripes 16", len(sa), len(sb))
	}
	for g := range sa {
		if x, y := sa[g].String(), sb[g].String(); x != y {
			t.Fatalf("stripe %d differs:\n--- Shards 4 × Stripes 4:\n%s--- Stripes 16:\n%s", g, x, y)
		}
	}
}

// The stripes are a lock-split of one array, not an approximation of it: an
// address's stripe times the sets per stripe, plus its set within the stripe,
// is its set in the monolithic H3-indexed array built from the engine's seed.
func TestStripesSplitTheMonolithicArray(t *testing.T) {
	for _, stripes := range []int{1, 4, 16} {
		cfg := testConfig(stripes)
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
				t.Fatalf("%d stripes: %#x in stripe %d set %d, global set %d; monolithic set %d",
					stripes, addr, g, local, got, want)
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
	for _, stripes := range []int{1, 16} {
		cfg := testConfig(stripes)
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
				t.Fatalf("%d stripes: %#x (set %d) reported line %d", stripes, a.Addr, first/cfg.Ways, res.Line)
			}
			if res.Evicted {
				if res.EvictedLine < first || res.EvictedLine >= first+cfg.Ways {
					t.Fatalf("%d stripes: %#x (set %d) evicted line %d", stripes, a.Addr, first/cfg.Ways, res.EvictedLine)
				}
				if l, ok := lineOf[res.EvictedAddr]; !ok || l != res.EvictedLine {
					t.Fatalf("%d stripes: victim %#x evicted from line %d, installed at %d (known %v)",
						stripes, res.EvictedAddr, res.EvictedLine, l, ok)
				}
				delete(lineOf, res.EvictedAddr)
			}
			if l, ok := lineOf[a.Addr]; ok != res.Hit || ok && l != res.Line {
				t.Fatalf("%d stripes: %#x hit %v at line %d, installed at %d (known %v)",
					stripes, a.Addr, res.Hit, res.Line, l, ok)
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
				b.Each(reqs, func(h Locked, i int32) {
					a := reqs[i]
					l := h.Lookup(a.Addr)
					res := h.Access(a.Addr, a.Part)
					if l >= 0 != res.Hit || l >= 0 && l != res.Line {
						t.Fatalf("%d stripes: %#x looked up at line %d, hit %v at line %d", stripes, a.Addr, l, res.Hit, res.Line)
					}
					results[i] = res
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
			t.Fatalf("%d stripes: %d hits, %d resident lines of %d", stripes, hits, len(lineOf), cfg.Lines)
		}
	}
}

// TestStripeTargetsSumToStripeLines pins SetTargets' even split on bench's
// engine geometry (16 384 lines in 16 stripes of 1 024, targets
// 8192/5461/2731): each stripe holds target/K or one more of each partition,
// and every stripe's targets sum to exactly its lines, after the first
// install, after 200 k accesses, and after every later install whose targets
// sum to Lines. CheckInvariants must agree, and must report a stripe whose
// targets were moved off the split.
func TestStripeTargetsSumToStripeLines(t *testing.T) {
	cfg := Config{
		Lines: 16384, Ways: 16, Shards: 4, Stripes: 4, Parts: 3,
		Ranking: futility.CoarseLRU, Seed: testSeed,
	}
	e := New(cfg)
	k := e.Stripes()
	check := func(when string, targets []int) {
		t.Helper()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for g, s := range e.StripeSnapshots() {
			sum := 0
			for p, ps := range s.Parts {
				if lo := targets[p] / k; ps.Target < lo || ps.Target > lo+1 {
					t.Fatalf("%s: stripe %d holds %d of partition %d's %d, want %d or %d",
						when, g, ps.Target, p, targets[p], lo, lo+1)
				}
				sum += ps.Target
			}
			if sum != cfg.Lines/k {
				t.Fatalf("%s: stripe %d targets sum to %d, want %d", when, g, sum, cfg.Lines/k)
			}
		}
	}
	targets := []int{8192, 5461, 2731}
	e.SetTargets(targets)
	check("after SetTargets", targets)
	rng := xrand.New(29)
	for i := 0; i < 200_000; i++ {
		e.Access(xrand.Mix64(rng.Uint64()%(1<<16)), i%cfg.Parts)
	}
	e.Rebalance()
	check("after 200k accesses and a Rebalance", targets)
	for i := 0; i < 100; i++ {
		a, b := rng.Intn(cfg.Lines+1), rng.Intn(cfg.Lines+1)
		targets = []int{min(a, b), max(a, b) - min(a, b), cfg.Lines - max(a, b)}
		e.SetTargets(targets)
		check(fmt.Sprintf("after install %d of %v", i, targets), targets)
	}

	// Targets that do not fill the cache hold only the per-partition sums.
	e.SetTargets([]int{100, 7, 3})
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("targets under capacity: %v", err)
	}
	for _, tc := range []struct {
		name   string
		damage func(tv []int)
	}{
		{"moved between partitions", func(tv []int) { tv[0]++; tv[1]-- }},
		{"line added", func(tv []int) { tv[2]++ }},
	} {
		e.SetTargets([]int{8192, 5461, 2731})
		st := e.stripes[5]
		st.mu.Lock()
		tv := append([]int(nil), st.cache.Targets()...)
		tc.damage(tv)
		st.cache.SetTargets(tv)
		st.mu.Unlock()
		if err := e.CheckInvariants(); err == nil {
			t.Errorf("%s: stripe 5's damaged targets %v passed the invariants", tc.name, tv)
		}
	}
}

// TestLockDisciplineSmoke is the runtime counterpart of the fslint lockcheck
// annotations on Engine and stripe (//fs:guardedby, //fs:lockorder): a seeded
// free-running mix of access workers, snapshot readers and target installs hammers
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
		//fslint:ignore determinism lock-discipline smoke: free-running workers share stripes on purpose; only race-freedom and accounting are asserted
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(testSeed ^ uint64(w)<<8)
			for i := 0; i < perWorker; i++ {
				addr := rng.Uint64() % (1 << 18)
				part := int(rng.Uint64() % uint64(cfg.Parts))
				e.Access(addr, part)
				// Periodic installs from every worker exercise the
				// mu-then-stripe.mu nested acquisition (//fs:lockorder)
				// while other workers hold individual stripe locks.
				if i%512 == 511 {
					e.SetTargets(testTargets())
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
				_ = e.StripeSnapshots()
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

// PartSizes is the occupancy sampler's read without Snapshot's histogram
// copies: after a striped run under uneven targets that churn, it equals
// Snapshot's per-partition sizes; it fills a long enough dst in place,
// overwriting what was there, and allocates only when dst is nil or short.
func TestPartSizes(t *testing.T) {
	cfg := testConfig(8)
	e := New(cfg)
	rng := xrand.New(testSeed ^ 0x9a27)
	for _, targets := range [][]int{{3072, 768, 256}, {256, 3328, 512}, {1536, 64, 2496}} {
		e.SetTargets(targets)
		for i := 0; i < 30_000; i++ {
			e.Access(xrand.Mix64(rng.Uint64()%(1<<14)), rng.Intn(cfg.Parts))
		}
	}
	snap := e.Snapshot()
	want := make([]int, cfg.Parts)
	for p := range want {
		want[p] = snap.Parts[p].Size
	}
	if got := e.PartSizes(nil); !slices.Equal(got, want) {
		t.Fatalf("PartSizes = %v, Snapshot sizes %v", got, want)
	}

	for _, n := range []int{cfg.Parts, cfg.Parts + 2} {
		dst := make([]int, n)
		for i := range dst {
			dst[i] = -1
		}
		if got := e.PartSizes(dst); &got[0] != &dst[0] || !slices.Equal(got, want) {
			t.Fatalf("PartSizes into a %d-slot dst = %v (reused %v), want %v in place", n, got, &got[0] == &dst[0], want)
		}
		if allocs := testing.AllocsPerRun(10, func() { e.PartSizes(dst) }); allocs != 0 {
			t.Errorf("PartSizes into a %d-slot dst: %v allocs, want 0", n, allocs)
		}
	}
	short := make([]int, cfg.Parts-1)
	if got := e.PartSizes(short); len(got) != cfg.Parts || &got[0] == &short[0] {
		t.Errorf("PartSizes into a %d-slot dst returned %d slots (reused %v)", len(short), len(got), &got[0] == &short[0])
	}
	for _, tc := range []struct {
		name string
		dst  []int
	}{{"nil", nil}, {"short", short}} {
		if n := testing.AllocsPerRun(10, func() { e.PartSizes(tc.dst) }); n == 0 {
			t.Errorf("PartSizes into a %s dst did not allocate", tc.name)
		}
	}
}

// A stripe fills whole cache lines, so no two stripes' mutexes share one.
func TestStripeFillsItsLines(t *testing.T) {
	if size := unsafe.Sizeof(stripe{}); size == 0 || size%stripeBytes != 0 {
		t.Fatalf("a stripe is %d bytes, not a multiple of %d", size, stripeBytes)
	}
}
