package faultinject

import (
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// seqGenerator yields consecutive fresh lines, so every fault the wrapper
// introduces is visible in the output stream.
type seqGenerator struct{ next uint64 }

func (g *seqGenerator) Next() trace.Access {
	g.next++
	return trace.Access{Addr: g.next}
}

func buildFaultable(t *testing.T, lines int) (*core.Cache, *core.FSFeedback, *futility.CoarseTS) {
	t.Helper()
	fs := core.NewFSFeedback(2, core.FSFeedbackConfig{})
	coarse := futility.NewCoarseTS(lines, 2)
	c := core.New(core.Config{
		Array:  cachearray.NewRandom(lines, 16, 7),
		Ranker: coarse,
		Scheme: fs,
		Parts:  2,
	})
	c.SetTargets([]int{lines / 2, lines / 2})
	return c, fs, coarse
}

func TestClassesCoverEverySurface(t *testing.T) {
	cs := Classes()
	if len(cs) != 7 {
		t.Fatalf("Classes() returned %d classes, want 7", len(cs))
	}
	seen := map[Class]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Fatalf("duplicate class %q", c)
		}
		seen[c] = true
	}
}

func TestFlipTimestampsDeterministic(t *testing.T) {
	const lines = 256
	count := func() int {
		c, _, coarse := buildFaultable(t, lines)
		rng := xrand.New(3)
		for i := 0; i < 4*lines; i++ {
			c.Access(rng.Uint64n(1<<14), rng.Intn(2), trace.NoNextUse)
		}
		in := NewInjector(99, Targets{Coarse: coarse, Cache: c})
		return in.FlipTimestamps(0.5)
	}
	a, b := count(), count()
	if a != b {
		t.Fatalf("same-seed flip counts differ: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("FlipTimestamps(0.5) on a warm cache flipped nothing")
	}
	if a > lines {
		t.Fatalf("flipped %d tags in a %d-line cache", a, lines)
	}
}

func TestInjectorUnboundTargetsPanic(t *testing.T) {
	in := NewInjector(1, Targets{})
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"FlipTimestamps", func() { in.FlipTimestamps(0.1) }},
		{"ForceAlphaMax", func() { in.ForceAlphaMax(0) }},
		{"ForceAlphaMin", func() { in.ForceAlphaMin(0) }},
		{"TruncateCandidates", func() { in.TruncateCandidates(2) }},
		{"StopTruncation", func() { in.StopTruncation() }},
	} {
		name, fn := tc.name, tc.fn
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with nil target did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestForceAlphaExtremes(t *testing.T) {
	_, fs, _ := buildFaultable(t, 64)
	in := NewInjector(1, Targets{Feedback: fs})
	in.ForceAlphaMax(0)
	if a := fs.Alphas()[0]; a != fs.AlphaMax() {
		t.Fatalf("alpha[0] = %v after ForceAlphaMax, want %v", a, fs.AlphaMax())
	}
	in.ForceAlphaMin(1)
	if a := fs.Alphas()[1]; a != 1 {
		t.Fatalf("alpha[1] = %v after ForceAlphaMin, want 1", a)
	}
}

func TestTruncateCandidatesInstallsAndStops(t *testing.T) {
	c, _, _ := buildFaultable(t, 256)
	in := NewInjector(1, Targets{Cache: c})
	in.TruncateCandidates(2)
	rng := xrand.New(5)
	for i := 0; i < 2048; i++ {
		c.Access(rng.Uint64n(1<<14), rng.Intn(2), trace.NoNextUse)
	}
	if total := c.Sizes()[0] + c.Sizes()[1]; total != 256 {
		t.Fatalf("size conservation broken under truncation: %d resident", total)
	}
	in.StopTruncation()
	for i := 0; i < 2048; i++ {
		c.Access(rng.Uint64n(1<<14), rng.Intn(2), trace.NoNextUse)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TruncateCandidates(0) did not panic")
		}
	}()
	in.TruncateCandidates(0)
}

func TestFaultyGeneratorPassthroughWhenZero(t *testing.T) {
	g := NewFaultyGenerator(&seqGenerator{}, 42, TraceFaults{})
	for i := 1; i <= 1000; i++ {
		if a := g.Next(); a.Addr != uint64(i) {
			t.Fatalf("record %d: addr %d, zero-rate wrapper must pass through", i, a.Addr)
		}
	}
	if g.Dropped+g.Duplicated+g.Corrupted != 0 {
		t.Fatal("zero-rate wrapper counted faults")
	}
}

func TestFaultyGeneratorDropDupCorrupt(t *testing.T) {
	const n = 20000
	g := NewFaultyGenerator(&seqGenerator{}, 42, TraceFaults{Drop: 0.1, Dup: 0.1, Corrupt: 0.1})
	dups := 0
	var prev uint64
	for i := 0; i < n; i++ {
		a := g.Next()
		if a.Addr == prev {
			dups++
		}
		prev = a.Addr
	}
	check := func(name string, got uint64) {
		// ±40% around the 10% expectation — loose enough to never flake on
		// a fixed seed, tight enough to catch a dead fault path.
		if got < n/10*6/10 || got > n/10*14/10 {
			t.Fatalf("%s = %d out of %d records, want ≈%d", name, got, n, n/10)
		}
	}
	check("Dropped", g.Dropped)
	check("Duplicated", g.Duplicated)
	check("Corrupted", g.Corrupted)
	if uint64(dups) < g.Duplicated {
		t.Fatalf("saw %d back-to-back repeats but counter says %d duplicates", dups, g.Duplicated)
	}
}

func TestFaultyGeneratorDeterministic(t *testing.T) {
	mk := func() *FaultyGenerator {
		return NewFaultyGenerator(&seqGenerator{}, 7, TraceFaults{Drop: 0.2, Dup: 0.2, Corrupt: 0.2})
	}
	a, b := mk(), mk()
	for i := 0; i < 5000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("record %d diverged: %+v vs %+v", i, x, y)
		}
	}
	if a.Dropped != b.Dropped || a.Duplicated != b.Duplicated || a.Corrupted != b.Corrupted {
		t.Fatal("same-seed fault counters diverged")
	}
}

func TestFaultyGeneratorValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"nil inner", func() { NewFaultyGenerator(nil, 1, TraceFaults{}) }},
		{"drop = 1", func() { NewFaultyGenerator(&seqGenerator{}, 1, TraceFaults{Drop: 1}) }},
		{"negative", func() { NewFaultyGenerator(&seqGenerator{}, 1, TraceFaults{Dup: -0.1}) }},
		{"set drop=1", func() { NewFaultyGenerator(&seqGenerator{}, 1, TraceFaults{}).SetRates(TraceFaults{Drop: 1}) }},
	} {
		name, fn := tc.name, tc.fn
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRecoveryTrackerSettle(t *testing.T) {
	tr := NewRecoveryTracker([]int{100, 50}, 0.05)
	tr.Observe([]int{100, 50}) // in band
	tr.Observe([]int{80, 50})  // 20% out on partition 0
	tr.Observe([]int{120, 50}) // 20% out the other way
	tr.Observe([]int{97, 51})  // back in band
	tr.Observe([]int{101, 49}) // stays in band
	if !tr.Disturbed() {
		t.Fatal("tracker saw 20% excursions but reports undisturbed")
	}
	if !tr.Recovered() {
		t.Fatal("tracker ended two samples inside the band but reports unrecovered")
	}
	if got := tr.SettleObservations(); got != 3 {
		t.Fatalf("SettleObservations = %d, want 3 (last excursion at sample 2)", got)
	}
	if d := tr.MaxDeviation(); d < 0.19 || d > 0.21 {
		t.Fatalf("MaxDeviation = %v, want 0.2", d)
	}
}

func TestRecoveryTrackerNeverLeft(t *testing.T) {
	tr := NewRecoveryTracker([]int{100}, 0.05)
	for i := 0; i < 10; i++ {
		tr.Observe([]int{100})
	}
	if tr.Disturbed() {
		t.Fatal("in-band run reported disturbed")
	}
	if got := tr.SettleObservations(); got != 0 {
		t.Fatalf("SettleObservations = %d, want 0 for a run that never left the band", got)
	}
}

func TestRecoveryTrackerEndsOutside(t *testing.T) {
	tr := NewRecoveryTracker([]int{100}, 0.05)
	tr.Observe([]int{100})
	tr.Observe([]int{50})
	if tr.Recovered() {
		t.Fatal("run ending out of band reported recovered")
	}
	if got := tr.SettleObservations(); got != -1 {
		t.Fatalf("SettleObservations = %d, want -1 while still out of band", got)
	}
}

func TestRecoveryTrackerValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero eps", func() { NewRecoveryTracker([]int{1}, 0) }},
		{"short sizes", func() { NewRecoveryTracker([]int{1, 2}, 0.1).Observe([]int{3}) }},
	} {
		name, fn := tc.name, tc.fn
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
