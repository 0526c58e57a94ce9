package core

import (
	"math"
	"sort"
	"testing"

	"fscache/internal/analytic"
	"fscache/internal/cachearray"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// TestFrameworkMatchesSimulation cross-validates the analytical framework
// (§IV) against the simulator: on a random-candidates cache (Uniformity
// Assumption realized) with fixed scaling factors, the measured
// eviction-futility CDF of each partition must match the model's
// EvictionFutilityCDF pointwise, and measured eviction fractions must match
// E_i(α). This ties Equation (1), the integral framework and the
// implementation together.
func TestFrameworkMatchesSimulation(t *testing.T) {
	const (
		lines = 8192
		r     = 16
	)
	cases := []struct {
		i1, s1 float64
	}{
		{0.5, 0.7},
		{0.3, 0.6},
	}
	for _, tc := range cases {
		insert := []float64{tc.i1, 1 - tc.i1}
		sizes := []float64{tc.s1, 1 - tc.s1}
		alphas, err := analytic.ScalingFactors(insert, sizes, r)
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFSFixed(2)
		fs.SetAlphas(alphas)
		c := New(Config{
			Array:  cachearray.NewRandom(lines, r, 77),
			Ranker: futility.NewExactLRU(lines, 2),
			Scheme: fs,
			Parts:  2,
			// 64 histogram buckets → CDF comparable at 1/64 resolution.
		})
		c.SetTargets([]int{int(tc.s1 * lines), lines - int(tc.s1*lines)})

		rng := xrand.New(79)
		next := [2]uint64{1 << 40, 2 << 40}
		insertOne := func() {
			p := 0
			if rng.Float64() >= tc.i1 {
				p = 1
			}
			c.Access(next[p], p, trace.NoNextUse)
			next[p]++
		}
		// Fill to target split, settle, then measure.
		for c.Sizes()[0]+c.Sizes()[1] < lines {
			p := 0
			if c.Sizes()[1] < c.Targets()[1] {
				p = 1
			}
			c.Access(next[p], p, trace.NoNextUse)
			next[p]++
		}
		for i := 0; i < 5*lines; i++ {
			insertOne()
		}
		c.ResetStats()
		const measure = 30 * lines
		for i := 0; i < measure; i++ {
			insertOne()
		}

		// Eviction fractions match E_i(α) = I_i (stationarity).
		ev0 := float64(c.Stats(0).Evictions)
		ev1 := float64(c.Stats(1).Evictions)
		frac0 := ev0 / (ev0 + ev1)
		if math.Abs(frac0-tc.i1) > 0.02 {
			t.Errorf("I1=%v S1=%v: eviction fraction %v, want %v",
				tc.i1, tc.s1, frac0, tc.i1)
		}

		// CDFs match the model pointwise (Kolmogorov–Smirnov style check).
		for p := 0; p < 2; p++ {
			got := c.Stats(p).EvictFutility.CDF()
			want := analytic.EvictionFutilityCDF(p, sizes, alphas, r, len(got))
			worst := 0.0
			for k := range got {
				// model CDF index k+1 corresponds to bucket upper edge.
				d := math.Abs(got[k] - want[k+1])
				if d > worst {
					worst = d
				}
			}
			if worst > 0.04 {
				t.Errorf("I1=%v S1=%v part %d: max CDF gap %v between model and simulation",
					tc.i1, tc.s1, p, worst)
			}
			// And AEF agrees.
			modelAEF := analytic.AEF(p, sizes, alphas, r)
			if math.Abs(c.Stats(p).AEF()-modelAEF) > 0.02 {
				t.Errorf("I1=%v S1=%v part %d: AEF %v, model %v",
					tc.i1, tc.s1, p, c.Stats(p).AEF(), modelAEF)
			}
		}
	}
}

// chaosScheme makes adversarial-but-legal decisions: random victims, random
// demotions to a pseudo-partition. The controller must keep every invariant
// regardless of scheme quality.
type chaosScheme struct {
	rng   *xrand.Rand
	parts int
}

func (c *chaosScheme) Bind(_, _ []int) {}
func (c *chaosScheme) Decide(cands []Candidate, insertPart int) Decision {
	d := Decision{Victim: c.rng.Intn(len(cands)), DemoteTo: c.parts - 1}
	for i := range cands {
		if i != d.Victim && cands[i].Part != c.parts-1 && c.rng.Bool(0.1) {
			d.Demote = append(d.Demote, i)
		}
	}
	d.Forced = c.rng.Bool(0.5)
	return d
}

// TestControllerChaos drives the controller with a hostile scheme across
// all array organizations and checks global invariants: size conservation,
// non-negative sizes, consistent owner accounting and resident lookups.
func TestControllerChaos(t *testing.T) {
	const lines = 256
	arrays := map[string]cachearray.Array{
		"setassoc": cachearray.NewSetAssoc(lines, 8, cachearray.IndexH3, 1),
		"skew":     cachearray.NewZCache(lines, 4, 1, 2),
		"zcache":   cachearray.NewZCache(lines, 4, 2, 3),
		"random":   cachearray.NewRandom(lines, 8, 4),
	}
	// Iterate in sorted-key order: subtest order (and the draw order of
	// any RNG shared across subtests) must not depend on map layout.
	names := make([]string, 0, len(arrays))
	for name := range arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		arr := arrays[name]
		t.Run(name, func(t *testing.T) {
			const parts = 4 // 3 app + 1 demote sink
			c := New(Config{
				Array:     arr,
				Ranker:    futility.NewCoarseTS(lines, parts),
				Reference: futility.NewExactLRU(lines, parts),
				Scheme:    &chaosScheme{rng: xrand.New(6), parts: parts},
				Parts:     parts,
			})
			c.SetTargets([]int{80, 80, 96, 0})
			rng := xrand.New(7)
			next := [3]uint64{1 << 40, 2 << 40, 3 << 40}
			for i := 0; i < 20000; i++ {
				p := rng.Intn(3)
				var addr uint64
				if rng.Bool(0.3) && next[p] > uint64(p+1)<<40+10 {
					addr = next[p] - uint64(rng.Intn(10)) - 1 // revisit
				} else {
					addr = next[p]
					next[p]++
				}
				c.Access(addr, p, trace.NoNextUse)
				if i%997 == 0 {
					checkInvariants(t, c, arr, lines, parts)
				}
			}
			checkInvariants(t, c, arr, lines, parts)
		})
	}
}

func checkInvariants(t *testing.T, c *Cache, arr cachearray.Array, lines, parts int) {
	t.Helper()
	sum := 0
	for p := 0; p < parts; p++ {
		if c.Sizes()[p] < 0 {
			t.Fatalf("negative size: %v", c.Sizes())
		}
		sum += c.Sizes()[p]
	}
	valid := 0
	counts := make([]int, parts)
	for l := 0; l < lines; l++ {
		if _, ok := arr.AddrOf(l); ok {
			valid++
			if p := c.partOf(l); p < 0 || p >= parts {
				t.Fatalf("line %d has invalid partition %d", l, p)
			}
			counts[c.partOf(l)]++
		}
	}
	if sum != valid {
		t.Fatalf("size sum %d != valid lines %d", sum, valid)
	}
	for p := 0; p < parts; p++ {
		if counts[p] != c.Sizes()[p] {
			t.Fatalf("partition %d recount %d != tracked %d", p, counts[p], c.Sizes()[p])
		}
	}
}
