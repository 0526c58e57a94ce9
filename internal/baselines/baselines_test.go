package baselines

import (
	"math"
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// streamDriver mirrors the core test helper: always-miss streams with
// controlled per-partition insertion probabilities.
type streamDriver struct {
	rng     *xrand.Rand
	insProb []float64
	next    []uint64
}

func newStreamDriver(seed uint64, insProb []float64) *streamDriver {
	next := make([]uint64, len(insProb))
	for i := range next {
		next[i] = uint64(i) << 40
	}
	return &streamDriver{rng: xrand.New(seed), insProb: insProb, next: next}
}

func (d *streamDriver) step(c *core.Cache) {
	u := d.rng.Float64()
	p, acc := 0, 0.0
	for i, pr := range d.insProb {
		acc += pr
		if u < acc {
			p = i
			break
		}
	}
	c.Access(d.next[p], p, trace.NoNextUse)
	d.next[p]++
}

func build(scheme core.Scheme, parts, lines, r int, seed uint64) *core.Cache {
	return core.New(core.Config{
		Array:  cachearray.NewRandom(lines, r, seed),
		Ranker: futility.NewExactLRU(lines, parts),
		Scheme: scheme,
		Parts:  parts,
	})
}

func equalTargets(parts, lines int) []int {
	t := make([]int, parts)
	for i := range t {
		t[i] = lines / parts
	}
	return t
}

func TestUnmanagedSizesTrackInsertions(t *testing.T) {
	const lines = 4096
	c := build(NewUnmanaged(), 2, lines, 16, 1)
	c.SetTargets(equalTargets(2, lines)) // ignored by the scheme
	d := newStreamDriver(2, []float64{0.8, 0.2})
	for i := 0; i < 30*lines; i++ {
		d.step(c)
	}
	// Without management, size fractions drift to insertion fractions.
	frac := float64(c.Sizes()[0]) / lines
	if math.Abs(frac-0.8) > 0.05 {
		t.Fatalf("unmanaged partition-0 fraction = %v, want ≈0.8", frac)
	}
	// And associativity is the unpartitioned optimum.
	if aef := c.Stats(0).AEF(); math.Abs(aef-16.0/17) > 0.02 {
		t.Fatalf("AEF = %v, want ≈0.94", aef)
	}
}

func TestPFSizingNearExact(t *testing.T) {
	const lines = 4096
	c := build(NewPF(2), 2, lines, 16, 3)
	c.SetTargets(equalTargets(2, lines))
	d := newStreamDriver(4, []float64{0.8, 0.2})
	for i := 0; i < 30*lines; i++ {
		d.step(c)
	}
	// §IV-D: PF has near-ideal sizing (MAD < 1 in the paper's setup).
	if s := c.Sizes()[0]; abs(s-2048) > 16 {
		t.Fatalf("PF partition-0 size = %d, want ≈2048", s)
	}
}

// Fig. 2a's mechanism: under PF, AEF collapses toward 0.5 as the number of
// equal partitions approaches R.
func TestPFAssociativityCollapse(t *testing.T) {
	const lines = 4096
	aef := func(parts int) float64 {
		c := build(NewPF(parts), parts, lines, 16, 5)
		c.SetTargets(equalTargets(parts, lines))
		probs := make([]float64, parts)
		for i := range probs {
			probs[i] = 1 / float64(parts)
		}
		d := newStreamDriver(6, probs)
		for i := 0; i < 30*lines; i++ {
			d.step(c)
		}
		return c.Stats(0).AEF()
	}
	a1, a4, a16 := aef(1), aef(4), aef(16)
	if !(a1 > a4 && a4 > a16) {
		t.Fatalf("AEF not collapsing: N=1:%v N=4:%v N=16:%v", a1, a4, a16)
	}
	if math.Abs(a1-16.0/17) > 0.02 {
		t.Fatalf("N=1 AEF = %v, want ≈0.94", a1)
	}
	if a16 > 0.65 {
		t.Fatalf("N=16 AEF = %v, want near the 0.5 worst case", a16)
	}
}

func TestCQVPHoldsQuotas(t *testing.T) {
	const lines = 4096
	c := build(NewCQVP(2), 2, lines, 16, 7)
	c.SetTargets([]int{1024, 3072})
	d := newStreamDriver(8, []float64{0.7, 0.3})
	for i := 0; i < 30*lines; i++ {
		d.step(c)
	}
	if s := c.Sizes()[0]; abs(s-1024) > 64 {
		t.Fatalf("CQVP partition-0 size = %d, want ≈1024", s)
	}
}

func TestVantageOccupancyAndForcedEvictions(t *testing.T) {
	const lines = 4096
	const parts = 3 // two applications + unmanaged pseudo-partition
	v := NewVantage(parts)
	c := core.New(core.Config{
		Array:  cachearray.NewRandom(lines, 16, 9),
		Ranker: futility.NewExactLRU(lines, parts),
		Scheme: v,
		Parts:  parts,
	})
	// Targets fill the managed region: 45% + 45%, leaving u = 10%.
	c.SetTargets([]int{1843, 1843, 0})
	d := newStreamDriver(11, []float64{0.5, 0.5, 0})
	for i := 0; i < 40*lines; i++ {
		d.step(c)
	}
	for p := 0; p < 2; p++ {
		frac := float64(c.Sizes()[p]) / 1843
		if frac < 0.90 || frac > 1.10 {
			t.Errorf("partition %d at %.2f× target", p, frac)
		}
	}
	un := float64(c.Sizes()[2]) / lines
	if un < 0.04 || un > 0.20 {
		t.Errorf("unmanaged region fraction = %v, want ≈0.10", un)
	}
	// Forced managed evictions occur when no candidate is unmanaged:
	// probability ≈ (1−u)^R = 0.9^16 ≈ 0.185 at steady state.
	var forced, evs uint64
	for p := 0; p < parts; p++ {
		forced += c.Stats(p).ForcedEvict
		evs += c.Stats(p).Evictions
	}
	rate := float64(forced) / float64(evs)
	if rate < 0.05 || rate > 0.40 {
		t.Errorf("forced eviction rate = %v, want ≈0.185", rate)
	}
	// Demotions are the mechanism feeding the unmanaged region.
	if c.Stats(0).Demotions == 0 {
		t.Error("no demotions recorded")
	}
}

func TestVantageZeroTargetPartitionIsEvictable(t *testing.T) {
	const lines = 512
	const parts = 3
	v := NewVantage(parts)
	c := core.New(core.Config{
		Array:  cachearray.NewRandom(lines, 16, 19),
		Ranker: futility.NewExactLRU(lines, parts),
		Scheme: v,
		Parts:  parts,
	})
	c.SetTargets([]int{460, 0, 0})
	d := newStreamDriver(21, []float64{0.3, 0.7, 0})
	for i := 0; i < 40*lines; i++ {
		d.step(c)
	}
	// Partition 1 has no allocation; it must not squat on the cache.
	if frac := float64(c.Sizes()[1]) / lines; frac > 0.25 {
		t.Fatalf("zero-target partition holds %.2f of cache", frac)
	}
}

// The controller accumulates occupancy lazily (size × accesses since the
// size last changed). Over a run where one access moves several partitions
// at once — Vantage demotions on top of the eviction and the insertion —
// the sums must equal the eager definition: every partition's size, taken
// after every access, whenever they are read and across a ResetStats.
func TestVantageOccupancySumMatchesEagerSampling(t *testing.T) {
	const lines = 512
	const parts = 3
	c := core.New(core.Config{
		Array:  cachearray.NewRandom(lines, 16, 27),
		Ranker: futility.NewExactLRU(lines, parts),
		Scheme: NewVantage(parts),
		Parts:  parts,
	})
	c.SetTargets([]int{300, 160, 0})
	rng := xrand.New(28)
	eager := make([]uint64, parts)
	var accesses uint64
	check := func(when string) {
		t.Helper()
		snap := c.StatsSnapshot()
		for p := 0; p < parts; p++ {
			if got := snap.Parts[p].OccupancySum; got != eager[p] {
				t.Fatalf("%s: partition %d OccupancySum = %d, eager sum %d", when, p, got, eager[p])
			}
			if got, want := c.MeanOccupancy(p), float64(eager[p])/float64(accesses); got != want {
				t.Fatalf("%s: partition %d MeanOccupancy = %v, want %v", when, p, got, want)
			}
		}
	}
	for i := 0; i < 40*lines; i++ {
		// Reuse within 1.5× each share so hits, misses and demotions mix.
		p := rng.Intn(2)
		c.Access(uint64(p)<<40|uint64(rng.Intn(450)), p, trace.NoNextUse)
		accesses++
		for q, s := range c.Sizes() {
			eager[q] += uint64(s)
		}
		switch {
		case i == 10*lines:
			c.ResetStats()
			eager, accesses = make([]uint64, parts), 0
		case i%997 == 0:
			check("mid-run")
		}
	}
	check("end")
	if c.Stats(0).Demotions+c.Stats(1).Demotions == 0 {
		t.Fatal("run produced no demotions")
	}
}

func TestPriSMSizingFewPartitions(t *testing.T) {
	const lines = 4096
	p := NewPriSM(2, 12)
	c := build(p, 2, lines, 16, 13)
	c.SetTargets(equalTargets(2, lines))
	d := newStreamDriver(14, []float64{0.8, 0.2})
	for i := 0; i < 40*lines; i++ {
		d.step(c)
	}
	// With N=2 and R=16, abnormalities are rare and sizing works.
	if r := p.AbnormalityRate(); r > 0.05 {
		t.Fatalf("abnormality rate = %v with 2 partitions", r)
	}
	if s := c.Sizes()[0]; abs(s-2048) > 300 {
		t.Fatalf("PriSM partition-0 size = %d, want ≈2048", s)
	}
}

// §VIII-A's PriSM failure mechanism: with N=32 and R=16 the sampled
// partition usually has no candidate, so sizing control is lost.
func TestPriSMAbnormalityManyPartitions(t *testing.T) {
	const lines = 8192
	const parts = 32
	p := NewPriSM(parts, 15)
	c := build(p, parts, lines, 16, 16)
	c.SetTargets(equalTargets(parts, lines))
	probs := make([]float64, parts)
	// Subject thread 0 inserts little; backgrounds hammer the cache.
	probs[0] = 0.005
	for i := 1; i < parts; i++ {
		probs[i] = (1 - probs[0]) / float64(parts-1)
	}
	d := newStreamDriver(17, probs)
	for i := 0; i < 20*lines; i++ {
		d.step(c)
	}
	if r := p.AbnormalityRate(); r < 0.5 {
		t.Fatalf("abnormality rate = %v, expected the paper's >0.5 regime", r)
	}
}

// Vantage manages (1−u) of the cache, rounded down: fig7's capacity at the
// quick (16 384-line) and full (131 072-line) scales.
func TestVantageManagedLines(t *testing.T) {
	for _, c := range []struct{ lines, want int }{{16384, 14745}, {131072, 117964}, {10, 9}, {9, 8}} {
		if got := VantageManagedLines(c.lines); got != c.want {
			t.Errorf("VantageManagedLines(%d) = %d, want %d", c.lines, got, c.want)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := []func(){
		func() { NewPF(0) },
		func() { NewCQVP(0) },
		func() { NewVantage(1) },
		func() { NewPriSM(0, 1) },
		func() { NewVantage(3).Bind(make([]int, 3), make([]int, 1)) },
		func() { NewVantage(3).Bind(make([]int, 1), make([]int, 3)) },
		func() { NewPriSM(2, 1).Bind(make([]int, 2), make([]int, 1)) },
		func() { NewPriSM(2, 1).Bind(make([]int, 1), make([]int, 2)) },
		func() { NewPF(2).Bind(make([]int, 2), make([]int, 1)) },
		func() { NewPF(2).Bind(make([]int, 1), make([]int, 2)) },
		func() { NewCQVP(2).Bind(make([]int, 2), make([]int, 1)) },
		func() { NewCQVP(2).Bind(make([]int, 1), make([]int, 2)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// FullAssoc ideal configuration: PF on a fully-associative array gives
// perfect sizing and AEF = 1 simultaneously.
func TestFullAssocIdeal(t *testing.T) {
	const lines = 1024
	pf := NewPF(2)
	c := core.New(core.Config{
		Array:  cachearray.NewFullyAssoc(lines),
		Ranker: futility.NewExactLRU(lines, 2),
		Scheme: pf,
		Parts:  2,
	})
	c.SetTargets(equalTargets(2, lines))
	d := newStreamDriver(24, []float64{0.8, 0.2})
	for i := 0; i < 30*lines; i++ {
		d.step(c)
	}
	if s := c.Sizes()[0]; abs(s-512) > 2 {
		t.Fatalf("FullAssoc size = %d, want 512", s)
	}
	for p := 0; p < 2; p++ {
		if aef := c.Stats(p).AEF(); aef < 0.999 {
			t.Fatalf("FullAssoc AEF = %v, want 1", aef)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkPFDecide(b *testing.B) {
	const lines = 8192
	c := build(NewPF(8), 8, lines, 16, 1)
	c.SetTargets(equalTargets(8, lines))
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(rng.Uint64(), i%8, trace.NoNextUse)
	}
}

func BenchmarkVantageDecide(b *testing.B) {
	const lines = 8192
	v := NewVantage(9)
	c := core.New(core.Config{
		Array:  cachearray.NewRandom(lines, 16, 1),
		Ranker: futility.NewExactLRU(lines, 9),
		Scheme: v,
		Parts:  9,
	})
	tg := equalTargets(9, lines*9/10*8/9/8*8) // ≈ managed split
	tg[8] = 0
	c.SetTargets(tg)
	rng := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(rng.Uint64(), i%8, trace.NoNextUse)
	}
}

// waysOf returns how many ways partition p owns under w's bound targets.
func waysOf(w *WayPart, p int) int {
	w.sync()
	n := 0
	for _, o := range w.owner {
		if o == p {
			n++
		}
	}
	return n
}

func TestWayPartApportionment(t *testing.T) {
	w := NewWayPart(3, 16)
	targets := []int{800, 150, 50}
	w.Bind(make([]int, 3), targets)
	total := waysOf(w, 0) + waysOf(w, 1) + waysOf(w, 2)
	if total != 16 {
		t.Fatalf("ways assigned = %d, want 16", total)
	}
	if waysOf(w, 0) < 10 {
		t.Fatalf("dominant partition got %d ways", waysOf(w, 0))
	}
	// Every partition with a non-zero target owns at least one way.
	if waysOf(w, 2) < 1 {
		t.Fatal("small partition starved of ways")
	}
	// A change to the bound targets re-apportions the ways.
	targets[0], targets[2] = 50, 800
	if waysOf(w, 2) < 10 || waysOf(w, 0) < 1 {
		t.Fatalf("after swapping targets: ways %d, %d, %d", waysOf(w, 0), waysOf(w, 1), waysOf(w, 2))
	}
}

func TestWayPartEnforcesAndDegradesAssociativity(t *testing.T) {
	const lines = 4096
	const parts = 8
	w := NewWayPart(parts, 16)
	c := core.New(core.Config{
		Array:  cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, 31),
		Ranker: futility.NewExactLRU(lines, parts),
		Scheme: w,
		Parts:  parts,
	})
	c.SetTargets(equalTargets(parts, lines))
	probs := make([]float64, parts)
	for i := range probs {
		probs[i] = 1.0 / parts
	}
	d := newStreamDriver(33, probs)
	for i := 0; i < 30*lines; i++ {
		d.step(c)
	}
	// Sizing: quantized to 2 ways of 16 → exactly target here (equal split).
	if s := c.Sizes()[0]; abs(s-lines/parts) > lines/parts/10 {
		t.Fatalf("way-partition size %d, want ≈%d", s, lines/parts)
	}
	// Associativity: each partition has only 2 replacement candidates, so
	// AEF sits far below the 16-candidate optimum 16/17 ≈ 0.94.
	if aef := c.Stats(0).AEF(); aef > 0.85 {
		t.Fatalf("way-partition AEF = %v, expected collapsed (≪0.94)", aef)
	}
}

func TestWayPartGranularity(t *testing.T) {
	// A 3/13 split over 16 ways is representable; a 1%/99% split is not —
	// the small partition is pinned to one way (6.25%).
	w := NewWayPart(2, 16)
	w.Bind(make([]int, 2), []int{10, 990})
	if got := waysOf(w, 0); got != 1 {
		t.Fatalf("1%% partition got %d ways", got)
	}
}

func TestWayPartValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewWayPart(0, 16) },
		func() { NewWayPart(17, 16) },
		func() { NewWayPart(2, 0) },
		func() { NewWayPart(2, 16).Bind(make([]int, 2), make([]int, 1)) },
		func() { NewWayPart(2, 16).Bind(make([]int, 1), make([]int, 2)) },
		func() {
			w := NewWayPart(2, 16)
			w.Decide(make([]core.Candidate, 4), 0) // wrong candidate count
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}
