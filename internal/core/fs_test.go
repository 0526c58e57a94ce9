package core

import (
	"math"
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// §VI: FS is conceptually independent of the futility ranking scheme. Run
// the feedback scheme over every ranking family and check sizing holds.
func TestFSOverEveryRanking(t *testing.T) {
	const lines = 2048
	for _, kind := range []futility.Kind{
		futility.LRU, futility.LFU, futility.OPT, futility.CoarseLRU,
	} {
		t.Run(kind.String(), func(t *testing.T) {
			fs := NewFSFeedback(2, FSFeedbackConfig{})
			c := New(Config{
				Array:  cachearray.NewRandom(lines, 16, 7),
				Ranker: futility.New(kind, lines, 2, 8),
				Scheme: fs,
				Parts:  2,
			})
			c.SetTargets([]int{1536, 512})
			rng := xrand.New(9)
			next := [2]uint64{1 << 40, 2 << 40}
			for i := 0; i < 30*lines; i++ {
				p := 0
				if rng.Float64() < 0.5 {
					p = 1
				}
				// OPT needs a next-use; for a fresh-line stream there is none.
				c.Access(next[p], p, trace.NoNextUse)
				next[p]++
			}
			if s := c.Sizes()[0]; math.Abs(float64(s)-1536) > 0.08*1536 {
				t.Fatalf("%v ranking: partition 0 size %d, want ≈1536 (α=%v)",
					kind, s, fs.Alphas())
			}
		})
	}
}

func TestFSFeedbackAlphaBounds(t *testing.T) {
	fs := NewFSFeedback(1, FSFeedbackConfig{Interval: 1, Delta: 2, AlphaMax: 8})
	actual, targets := []int{100}, []int{0} // permanently oversized
	fs.Bind(actual, targets)
	for i := 0; i < 100; i++ {
		fs.OnInsert(0)
	}
	if a := fs.Alphas()[0]; a != 8 {
		t.Fatalf("alpha = %v, want saturated at 8", a)
	}
	// Now permanently undersized and shrinking: alpha floors at 1.
	targets[0] = 1000
	for i := 0; i < 100; i++ {
		fs.OnEviction(0)
	}
	if a := fs.Alphas()[0]; a != 1 {
		t.Fatalf("alpha = %v, want floored at 1", a)
	}
}

func TestForceAlphaClampsAndResetsInterval(t *testing.T) {
	fs := NewFSFeedback(2, FSFeedbackConfig{Interval: 4, Delta: 2, AlphaMax: 16})
	fs.Bind([]int{10, 10}, []int{10, 10})
	if got := fs.AlphaMax(); got != 16 {
		t.Fatalf("AlphaMax = %v, want 16", got)
	}
	if got := fs.Interval(); got != 4 {
		t.Fatalf("Interval = %v, want 4", got)
	}
	fs.ForceAlpha(0, 1000)
	if a := fs.Alphas()[0]; a != 16 {
		t.Fatalf("forced alpha = %v, want clamped to 16", a)
	}
	fs.ForceAlpha(0, 0.01)
	if a := fs.Alphas()[0]; a != 1 {
		t.Fatalf("forced alpha = %v, want clamped to 1", a)
	}
	fs.ForceAlpha(1, 4)
	if a := fs.Alphas()[1]; a != 4 {
		t.Fatalf("forced alpha = %v, want 4", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ForceAlpha out of range did not panic")
		}
	}()
	fs.ForceAlpha(2, 1)
}

// The §V self-correction claim at unit scale: converge, force both scaling
// factors to adversarial extremes, and check the controller pulls the
// partition sizes back to their targets.
func TestFSFeedbackRecoversFromForcedAlpha(t *testing.T) {
	const lines = 2048
	fs := NewFSFeedback(2, FSFeedbackConfig{})
	c := New(Config{
		Array:  cachearray.NewRandom(lines, 16, 7),
		Ranker: futility.NewCoarseTS(lines, 2),
		Scheme: fs,
		Parts:  2,
	})
	targets := []int{1434, 614} // 0.7/0.3 under 0.5/0.5 insertion pressure
	c.SetTargets(targets)
	d := newStreamDriver(11, []float64{0.5, 0.5})
	for i := 0; i < 20*lines; i++ {
		d.step(c)
	}
	check := func(when string) {
		for p, tgt := range targets {
			if got := c.Sizes()[p]; math.Abs(float64(got-tgt)) > 0.08*float64(tgt) {
				t.Fatalf("%s: partition %d size %d, want ≈%d (α=%v)",
					when, p, got, tgt, fs.Alphas())
			}
		}
	}
	check("before fault")
	// Adversarial extremes: over-evict the big partition, let the small
	// one balloon.
	fs.ForceAlpha(0, fs.AlphaMax())
	fs.ForceAlpha(1, 1)
	for i := 0; i < 20*lines; i++ {
		d.step(c)
	}
	check("after forced-alpha recovery")
}
