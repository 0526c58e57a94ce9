package futility

import (
	"math"
	"testing"

	"fscache/internal/xrand"
)

// TestFutilityRawAgreementAcrossHalving pins FutilityRaw's contract: it must
// be observably identical to calling Futility then Raw, in that order —
// same returned values bit for bit AND same internal side effects (each
// histogram observation lands, the CDF rebuild fires at the same query).
// Two identical rankers are driven with the same operation stream, one
// through the split calls, one through the combined call, for enough
// observations to cross the 2^20 histogram-halving threshold and thousands
// of CDF rebuilds, so any drift in observation accounting around the
// halving or rebuild boundaries surfaces as a bit mismatch.
func TestFutilityRawAgreementAcrossHalving(t *testing.T) {
	const lines, parts = 64, 2
	split := NewCoarseTS(lines, parts)
	combined := NewCoarseTS(lines, parts)
	rng := xrand.New(0xc0a2)

	for l := 0; l < lines; l++ {
		p := l % parts
		split.OnInsert(l, p, Context{})
		combined.OnInsert(l, p, Context{})
	}

	// Each iteration lands 2 observations on one of the 2 partitions, so
	// per-partition mass grows by ~1 per iteration; halving triggers at
	// 2^20 per-partition mass.
	const iters = 1_300_000
	halvings := 0
	prevTotal := split.total[0]
	for i := 0; i < iters; i++ {
		l := rng.Intn(lines)
		p := l % parts
		if rng.Bool(0.3) {
			split.OnHit(l, p, Context{})
			combined.OnHit(l, p, Context{})
		}
		f1 := split.Futility(l, p)
		r1 := split.Raw(l, p)
		f2, r2 := combined.FutilityRaw(l, p)
		if math.Float64bits(f1) != math.Float64bits(f2) {
			t.Fatalf("iter %d: quantile diverged: split %v (bits %#x), combined %v (bits %#x)",
				i, f1, math.Float64bits(f1), f2, math.Float64bits(f2))
		}
		if r1 != r2 {
			t.Fatalf("iter %d: raw diverged: split %d, combined %d", i, r1, r2)
		}
		if split.total[0] < prevTotal {
			halvings++
		}
		prevTotal = split.total[0]
		if i%100_000 == 0 {
			if err := split.CheckInvariants(); err != nil {
				t.Fatalf("iter %d: split ranker: %v", i, err)
			}
			if err := combined.CheckInvariants(); err != nil {
				t.Fatalf("iter %d: combined ranker: %v", i, err)
			}
		}
	}
	if halvings == 0 {
		t.Fatal("test never crossed the histogram-halving threshold; raise iters")
	}
	// The two rankers' full internal accounting must also agree at the end.
	for p := 0; p < parts; p++ {
		if split.total[p] != combined.total[p] {
			t.Fatalf("partition %d: histogram mass diverged: split %d, combined %d",
				p, split.total[p], combined.total[p])
		}
		if split.gen[p] != combined.gen[p] {
			t.Fatalf("partition %d: rebuild generation diverged: split %d, combined %d",
				p, split.gen[p], combined.gen[p])
		}
		for d := 0; d < 256; d++ {
			if split.cdf[p].hist[d] != combined.cdf[p].hist[d] {
				t.Fatalf("partition %d bin %d: histogram diverged: split %d, combined %d",
					p, d, split.cdf[p].hist[d], combined.cdf[p].hist[d])
			}
		}
	}
	t.Logf("agreement held across %d queries and %d halvings", iters, halvings)
}
