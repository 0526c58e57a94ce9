package shardcache

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/xrand"
)

// allMeasured is the engine New built before AEF was sampled by lock domain:
// a reference ranker on every stripe.
func allMeasured(cfg Config) *Engine { return newEngine(cfg, func(int) bool { return true }) }

func stripeSnapshot(e *Engine, g int) core.Snapshot {
	st := e.stripes[g]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cache.StatsSnapshot()
}

// TestSampledMeasurementChangesNoOutcome drives the default engine and one
// with every stripe measured through one schedule, target installs included. The
// reference ranker decides nothing, so every access must come back the same
// but for EvictedFutility, which only a measured stripe reports; a measured
// stripe must end byte-identical to its all-measured twin, an unmeasured one
// identical but for its empty futility histograms.
//
// Seen to fail with the default engine's unmeasured stripes built as
// core.Config{Reference: nil} without Unmeasured: the coarse ranker then
// doubles as reference and its CDF estimates land in EvictedFutility and the
// histograms.
func TestSampledMeasurementChangesNoOutcome(t *testing.T) {
	cfg := testConfig(16)
	cfg.Ranking = futility.CoarseLRU
	all, def := allMeasured(cfg), New(cfg)
	all.SetTargets(testTargets())
	def.SetTargets(testTargets())
	rounds, perRound := 6, 8192
	if testing.Short() {
		rounds, perRound = 3, 4096
	}
	sched := BuildSchedule(def, testSeed^0x5a, 4, rounds, perRound)
	for r := 0; r < sched.Rounds(); r++ {
		for w := 0; w < sched.Workers(); w++ {
			for i, op := range sched.Ops(r, w) {
				a, d := all.Access(op.Addr, op.Part), def.Access(op.Addr, op.Part)
				if g := def.stripeOf(op.Addr); g%measureEvery != 0 {
					if d.EvictedFutility != 0 {
						t.Fatalf("round %d worker %d op %d: unmeasured stripe %d reported eviction futility %v", r, w, i, g, d.EvictedFutility)
					}
					a.EvictedFutility = 0
				}
				if a != d {
					t.Fatalf("round %d worker %d op %d: all-measured %+v, default %+v", r, w, i, a, d)
				}
			}
		}
		tg := testTargets()
		if r%2 == 0 {
			slices.Reverse(tg)
		}
		all.SetTargets(tg)
		def.SetTargets(tg)
	}
	for _, e := range []*Engine{all, def} {
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	measuredEvictions := make([]uint64, cfg.Parts)
	for g := range def.stripes {
		as, ds := stripeSnapshot(all, g), stripeSnapshot(def, g)
		for p := range ds.Parts {
			if g%measureEvery == 0 {
				measuredEvictions[p] += ds.Parts[p].Evictions
				continue
			}
			if n := ds.Parts[p].EvictFutility.N(); n != 0 {
				t.Errorf("unmeasured stripe %d partition %d recorded %d eviction futilities", g, p, n)
			}
			as.Parts[p].EvictFutility = ds.Parts[p].EvictFutility
		}
		if as.String() != ds.String() {
			t.Errorf("stripe %d differs:\nall-measured\n%sdefault\n%s", g, as, ds)
		}
	}
	am, dm := all.Snapshot(), def.Snapshot()
	for p := range dm.Parts {
		if dm.Parts[p].Evictions != am.Parts[p].Evictions || dm.Parts[p].Evictions == 0 {
			t.Errorf("partition %d: %d evictions, all-measured %d", p, dm.Parts[p].Evictions, am.Parts[p].Evictions)
		}
		if got := dm.Parts[p].EvictFutility.N(); got != measuredEvictions[p] || got == 0 {
			t.Errorf("partition %d: merged histogram holds %d futilities, measured stripes evicted %d", p, got, measuredEvictions[p])
		}
	}
}

// Which stripes measure: one in measureEvery of a coarse-ranked engine and
// stripe 0 whatever the geometry; every stripe of an exactly ranked one, which
// has no separate reference to save. An engine that measures nowhere, which
// New cannot build, fails its invariants.
func TestMeasuredStripes(t *testing.T) {
	for _, tc := range []struct {
		stripes int
		ranking futility.Kind
		want    int
	}{
		{1, futility.CoarseLRU, 1},
		{2, futility.CoarseLRU, 1},
		{4, futility.CoarseLRU, 1},
		{8, futility.CoarseLRU, 2},
		{16, futility.CoarseLRU, 4},
		{16, futility.LRU, 16},
	} {
		cfg := testConfig(tc.stripes)
		cfg.Ranking = tc.ranking
		e := New(cfg)
		if e.measured != tc.want {
			t.Errorf("%d stripes %v: %d measured stripes, want %d", tc.stripes, tc.ranking, e.measured, tc.want)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Errorf("%d stripes %v: %v", tc.stripes, tc.ranking, err)
		}
	}
	never := func(int) bool { return false }
	cfg := testConfig(4)
	if err := newEngine(cfg, never).CheckInvariants(); err != nil {
		t.Errorf("exact ranking measures itself, yet: %v", err)
	}
	cfg.Ranking = futility.CoarseLRU
	if newEngine(cfg, never).CheckInvariants() == nil {
		t.Error("a coarse-ranked engine with no measured stripe passed its invariants")
	}
}

// mixedSchedule cuts the stream of bench/'s engine-shared-mixed — partitions
// drawn uniformly, each a Zipf(0.9) popularity over a footprint of 1, 2/3 and
// 1/3 of the cache — into rounds of perRound accesses, each handed to the
// worker that owns its stripe.
func mixedSchedule(e *Engine, seed uint64, workers, rounds, perRound int) *Schedule {
	spans := []int{e.Lines(), e.Lines() * 2 / 3, e.Lines() / 3}
	rng := xrand.New(xrand.Mix64(seed ^ scheduleSalt))
	zs := make([]*xrand.Zipf, len(spans))
	for p, span := range spans {
		zs[p] = xrand.NewZipf(rng, 0.9, span)
	}
	s := &Schedule{workers: workers, ops: make([][][]Access, rounds)}
	for r := range s.ops {
		s.ops[r] = make([][]Access, workers)
		for i := 0; i < perRound; i++ {
			p := rng.Intn(len(spans))
			addr := xrand.Mix64(uint64(p)<<40 | uint64(zs[p].Next()))
			w := e.stripeOf(addr) % workers
			s.ops[r][w] = append(s.ops[r][w], Access{Addr: addr, Part: p})
		}
	}
	return s
}

// benchGeometry is bench/'s engine-shared-mixed engine: 16384 lines, 16 ways,
// 16 stripes, 3 partitions on coarse timestamps.
func benchGeometry(seed uint64) Config {
	return Config{Lines: 16384, Ways: 16, Stripes: 16, Parts: 3, Ranking: futility.CoarseLRU, Seed: seed}
}

// New's bytes on bench/'s geometry, counted rather than timed: 273 216 on
// amd64, of which the engine's one H3 is 8 KB, core's partition ids 2 bytes
// a line and the arrays' valid flags one bit (DESIGN §10's table). A private
// H3 per stripe (+128 KB), a 4-byte id (+32 KB), a valid byte a line or a
// coarse residency flag (+14 or +16 KB) fails here.
func TestNewAllocationBudget(t *testing.T) {
	const budget = 277000
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		e := New(benchGeometry(1))
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(e)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > budget {
		t.Fatalf("New allocates %d bytes on the bench geometry, budget %d", least, budget)
	}
	t.Logf("New allocates %d bytes", least)
}

// TestSampledAEFEstimatesFullAEF bounds what sampling one lock domain in four
// costs the estimate, on bench/'s engine-shared-mixed geometry and stream
// (16384 lines, 16 ways, 16 stripes, targets 3:2:1) under the
// deterministic driver. Each seed builds its own engine as well as its own
// stream, because most of the error is which four of the sixteen hash slices
// happen to be sampled, not how long they are watched. Runs repeat exactly per
// seed, so the spread over seeds is the estimator's own, and the test bounds
// its mean as well as its tail. Over seeds 1–48, |AEF(default) −
// AEF(all-measured)| per partition has mean 0.0054 and maximum 0.0214 (seed
// 18), and merged a maximum of 0.0151; 0.2392–0.2662 of the evictions are
// measured. The same engine with a private H3 per stripe instead of the shared
// router, a different draw of the same placement, gave 0.0048, 0.0157 (seed
// 14) and 0.0102. Seeds 1–12 are the run here.
func TestSampledAEFEstimatesFullAEF(t *testing.T) {
	cfg := benchGeometry(0)
	targets := []int{8192, 5461, 2731}
	const (
		rounds, perRound = 6, 1 << 17
		meanTol          = 0.008
		partTol, allTol  = 0.03, 0.02
	)
	seeds := uint64(12)
	if testing.Short() {
		seeds = 2 // whole runs still, so the figures above bound them
	}
	var sumPart, worstPart, worstAll, loShare, hiShare = 0.0, 0.0, 0.0, 1.0, 0.0
	for seed := uint64(1); seed <= seeds; seed++ {
		cfg.Seed = seed
		all, def := allMeasured(cfg), New(cfg)
		all.SetTargets(targets)
		def.SetTargets(targets)
		sched := mixedSchedule(def, seed, 4, rounds, perRound)
		RunDeterministic(all, sched)
		RunDeterministic(def, sched)
		as, ds := all.Snapshot(), def.Snapshot()
		var aSum, dSum float64
		var aN, dN, evictions uint64
		for p := range ds.Parts {
			ah, dh := as.Parts[p].EvictFutility, ds.Parts[p].EvictFutility
			d := math.Abs(dh.Mean() - ah.Mean())
			if d > partTol {
				t.Errorf("seed %d partition %d: AEF %.4f sampled, %.4f all-measured", seed, p, dh.Mean(), ah.Mean())
			}
			sumPart += d
			worstPart = math.Max(worstPart, d)
			aSum, aN = aSum+ah.Sum(), aN+ah.N()
			dSum, dN = dSum+dh.Sum(), dN+dh.N()
			evictions += ds.Parts[p].Evictions
		}
		if aN != evictions {
			t.Fatalf("seed %d: all-measured engine recorded %d futilities for %d evictions", seed, aN, evictions)
		}
		d := math.Abs(dSum/float64(dN) - aSum/float64(aN))
		if d > allTol {
			t.Errorf("seed %d: merged AEF %.4f sampled, %.4f all-measured", seed, dSum/float64(dN), aSum/float64(aN))
		}
		worstAll = math.Max(worstAll, d)
		share := float64(dN) / float64(evictions)
		if share < 0.75/measureEvery || share > 1.25/measureEvery {
			t.Errorf("seed %d: %d of %d evictions measured (%.4f), want within 25%% of 1/%d", seed, dN, evictions, share, measureEvery)
		}
		loShare, hiShare = math.Min(loShare, share), math.Max(hiShare, share)
	}
	mean := sumPart / float64(seeds*uint64(cfg.Parts))
	if mean > meanTol {
		t.Errorf("mean |ΔAEF| per partition %.4f over %d seeds, want at most %.3f", mean, seeds, meanTol)
	}
	t.Logf("|ΔAEF| per partition: mean %.4f, max %.4f; merged max %.4f; measured share %.4f–%.4f", mean, worstPart, worstAll, loShare, hiShare)
}
