package analytic

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// The paper's own numeric anchor for the feasibility bound: a partition with
// I₁ = 0.01 and R = 16 can hold at most 0.01^(1/16) ≈ 75% of the cache.
func TestMaxSizeFractionPaperAnchor(t *testing.T) {
	got := MaxSizeFraction(0.01, 16)
	if !almost(got, 0.75, 0.01) {
		t.Fatalf("MaxSizeFraction(0.01, 16) = %v, want ≈0.75", got)
	}
}

func TestFeasibleMinInsertion(t *testing.T) {
	if got := FeasibleMinInsertion(0.5, 4); !almost(got, 0.0625, 1e-12) {
		t.Fatalf("FeasibleMinInsertion = %v", got)
	}
}

// Fig. 3's top-left anchor: S₂ = 0.2, I₂ = 0.9, R = 16 → α₂ ≈ 2.8 (the
// figure's y axis tops out at 3.0).
func TestScalingFactor2PFig3Anchor(t *testing.T) {
	a2, err := ScalingFactor2P(0.1, 0.8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a2 < 2.5 || a2 > 3.0 {
		t.Fatalf("α₂ = %v, want ≈2.8", a2)
	}
}

// §IV-C anchors: with I₁=I₂=0.5, shrinking partition 2 from S₂=0.4 to 0.1
// raises α₂ from ≈1.03 to ≈1.6.
func TestScalingFactor2PFig4Anchors(t *testing.T) {
	a, err := ScalingFactor2P(0.5, 0.6, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(a, 1.031, 0.01) {
		t.Fatalf("α₂(S₂=0.4) = %v, want ≈1.031", a)
	}
	b, err := ScalingFactor2P(0.5, 0.9, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b, 1.62, 0.02) {
		t.Fatalf("α₂(S₂=0.1) = %v, want ≈1.62", b)
	}
}

func TestScalingFactor2PMonotonicity(t *testing.T) {
	// Fig. 3: α₂ grows as I₂ increases (I₁ decreases) and as S₂ shrinks.
	prev := 0.0
	for _, i2 := range []float64{0.6, 0.7, 0.8, 0.9} {
		a, err := ScalingFactor2P(1-i2, 0.7, 16)
		if err != nil {
			t.Fatal(err)
		}
		if a <= prev {
			t.Fatalf("α₂ not increasing in I₂: %v after %v", a, prev)
		}
		prev = a
	}
	prev = math.Inf(1)
	for _, s2 := range []float64{0.2, 0.25, 0.3, 0.35, 0.4} {
		a, err := ScalingFactor2P(0.3, 1-s2, 16)
		if err != nil {
			t.Fatal(err)
		}
		if a >= prev {
			t.Fatalf("α₂ not decreasing in S₂: %v after %v", a, prev)
		}
		prev = a
	}
}

func TestScalingFactor2PInfeasible(t *testing.T) {
	// I₁ below S₁^R is unenforceable by any replacement-based scheme.
	s1 := 0.9
	i1 := FeasibleMinInsertion(s1, 4) * 0.5
	if _, err := ScalingFactor2P(i1, s1, 4); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestScalingFactor2PBadInputs(t *testing.T) {
	for _, c := range []struct {
		i1, s1 float64
		r      int
	}{
		{0, 0.5, 16}, {1, 0.5, 16}, {0.5, 0, 16}, {0.5, 1, 16}, {0.5, 0.5, 1},
	} {
		if _, err := ScalingFactor2P(c.i1, c.s1, c.r); err == nil {
			t.Errorf("ScalingFactor2P(%v,%v,%d) succeeded", c.i1, c.s1, c.r)
		}
	}
}

// The general solver must reproduce the closed form for two partitions.
func TestScalingFactorsMatchesClosedForm(t *testing.T) {
	cases := []struct{ i1, s1 float64 }{
		{0.5, 0.6}, {0.5, 0.9}, {0.1, 0.8}, {0.3, 0.65}, {0.4, 0.75},
	}
	for _, c := range cases {
		want, err := ScalingFactor2P(c.i1, c.s1, 16)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ScalingFactors([]float64{c.i1, 1 - c.i1}, []float64{c.s1, 1 - c.s1}, 16)
		if err != nil {
			t.Fatalf("ScalingFactors(%v): %v", c, err)
		}
		if !almost(got[0], 1, 1e-3) {
			t.Fatalf("α₁ = %v, want 1", got[0])
		}
		if !almost(got[1]/want, 1, 0.02) {
			t.Fatalf("α₂ = %v, closed form %v", got[1], want)
		}
	}
}

func TestScalingFactorsEqualIS(t *testing.T) {
	// §IV-C: when every partition has I_i/S_i = 1 all scaling factors are 1
	// and associativity is fully preserved regardless of partition count.
	insert := []float64{0.25, 0.25, 0.25, 0.25}
	size := []float64{0.25, 0.25, 0.25, 0.25}
	alpha, err := ScalingFactors(insert, size, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range alpha {
		if !almost(a, 1, 0.01) {
			t.Fatalf("α[%d] = %v, want 1", i, a)
		}
	}
}

func TestScalingFactorsFourPartitions(t *testing.T) {
	insert := []float64{0.1, 0.2, 0.3, 0.4}
	size := []float64{0.4, 0.3, 0.2, 0.1}
	alpha, err := ScalingFactors(insert, size, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Stationarity: eviction fractions match insertion fractions.
	for i := range insert {
		e := EvictionFraction(i, size, alpha, 16)
		if !almost(e, insert[i], 2e-3) {
			t.Fatalf("E[%d] = %v, want %v (α=%v)", i, e, insert[i], alpha)
		}
	}
	// Higher I/S ratio ⇒ larger α (§IV-E summary).
	for i := 1; i < 4; i++ {
		if alpha[i] <= alpha[i-1] {
			t.Fatalf("α not increasing with I/S: %v", alpha)
		}
	}
}

func TestScalingFactorsValidation(t *testing.T) {
	if _, err := ScalingFactors(nil, nil, 16); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ScalingFactors([]float64{0.5}, []float64{0.5, 0.5}, 16); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ScalingFactors([]float64{0.5, 0.6}, []float64{0.5, 0.5}, 16); err == nil {
		t.Error("non-normalized insert accepted")
	}
	if _, err := ScalingFactors([]float64{-1, 2}, []float64{0.5, 0.5}, 16); err == nil {
		t.Error("negative fraction accepted")
	}
	if a, err := ScalingFactors([]float64{1}, []float64{1}, 16); err != nil || a[0] != 1 {
		t.Error("single partition must be trivially α=1")
	}
}

func TestEvictionFractionsSumToOne(t *testing.T) {
	s := []float64{0.5, 0.3, 0.2}
	alpha := []float64{1, 1.4, 2.2}
	sum := 0.0
	for i := range s {
		sum += EvictionFraction(i, s, alpha, 16)
	}
	if !almost(sum, 1, 1e-3) {
		t.Fatalf("ΣE = %v, want 1", sum)
	}
}

func TestUnpartitionedAEF(t *testing.T) {
	if !almost(UnpartitionedAEF(16), 16.0/17, 1e-12) {
		t.Fatal("UnpartitionedAEF wrong")
	}
	// The framework must agree: one partition, α=1.
	if got := AEF(0, []float64{1}, []float64{1}, 16); !almost(got, 16.0/17, 1e-3) {
		t.Fatalf("framework AEF = %v, want %v", got, 16.0/17)
	}
}

// §IV-C's qualitative claims about FS associativity.
func TestAEFProperties(t *testing.T) {
	s := []float64{0.9, 0.1}
	a2, err := ScalingFactor2P(0.5, 0.9, 16)
	if err != nil {
		t.Fatal(err)
	}
	alpha := []float64{1, a2}
	aef1 := AEF(0, s, alpha, 16)
	aef2 := AEF(1, s, alpha, 16)
	// Unscaled partition keeps full associativity (same AEF as
	// unpartitioned); scaled partition is somewhat degraded but stays high.
	if !almost(aef1, UnpartitionedAEF(16), 0.02) {
		t.Fatalf("AEF of unscaled partition = %v, want ≈%v", aef1, UnpartitionedAEF(16))
	}
	if aef2 >= aef1 {
		t.Fatalf("scaled partition AEF %v not below unscaled %v", aef2, aef1)
	}
	// Paper's anchor: S₂=0.1, I=0.5 → AEF₂ ≈ 0.86.
	if aef2 < 0.80 || aef2 > 0.92 {
		t.Fatalf("AEF₂ = %v, want ≈0.86", aef2)
	}
}

func TestEvictionFutilityCDFShape(t *testing.T) {
	s := []float64{0.6, 0.4}
	alpha := []float64{1, 1.5}
	for part := 0; part < 2; part++ {
		cdf := EvictionFutilityCDF(part, s, alpha, 16, 64)
		if !almost(cdf[0], 0, 1e-6) || !almost(cdf[64], 1, 1e-6) {
			t.Fatalf("CDF endpoints wrong: %v, %v", cdf[0], cdf[64])
		}
		for k := 1; k <= 64; k++ {
			if cdf[k] < cdf[k-1]-1e-9 {
				t.Fatalf("CDF not monotone at %d", k)
			}
		}
	}
}

// Property: Eq. (1) always yields a stationary solution: plugging α back
// into the framework reproduces E₁ = I₁.
func TestQuickEquation1Stationary(t *testing.T) {
	f := func(rawI, rawS uint16) bool {
		i1 := 0.05 + 0.9*float64(rawI)/65535
		s1 := 0.05 + 0.9*float64(rawS)/65535
		if i1 > s1 {
			// Eq. (1) is stated for the low-I/S partition unscaled (α₂ ≥ 1);
			// the swapped case is covered by relabeling partitions.
			i1, s1 = 1-i1, 1-s1
		}
		a2, err := ScalingFactor2P(i1, s1, 16)
		if err != nil {
			return true // infeasible corner; nothing to check
		}
		s := []float64{s1, 1 - s1}
		alpha := []float64{1, a2}
		e1 := EvictionFraction(0, s, alpha, 16)
		return almost(e1, i1, 5e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSizingModelRestoring(t *testing.T) {
	// Equal split, I₁ = 0.5 ⇒ α₂ from Eq. (1) is 1; the walk is symmetric
	// around the target with small MAD relative to capacity.
	m := &SizingModel{TotalLines: 4096, Insert1: 0.5, Alpha2: 1, R: 16}
	target := 2048
	mean, mad, cdf := m.DeviationStats(target, 1024, []int{0, 16, 64, 256, 1024})
	if !almost(mean, float64(target), 4) {
		t.Fatalf("mean = %v, want ≈%d", mean, target)
	}
	if mad <= 0 || mad > 200 {
		t.Fatalf("MAD = %v, want small positive", mad)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("deviation CDF not monotone: %v", cdf)
		}
	}
	if !almost(cdf[len(cdf)-1], 1, 1e-6) {
		t.Fatalf("deviation CDF tail = %v", cdf[len(cdf)-1])
	}
}

func TestSizingModelLowerInsertionTighter(t *testing.T) {
	// §IV-D: I₁(1−I₁) governs deviation; I₁=0.1 must wander less than
	// I₁=0.5. (Both with matching Eq. (1) alphas at equal split.)
	a05, _ := ScalingFactor2P(0.5, 0.5, 16)
	a01, _ := ScalingFactor2P(0.1, 0.5, 16)
	m5 := &SizingModel{TotalLines: 4096, Insert1: 0.5, Alpha2: a05, R: 16}
	m1 := &SizingModel{TotalLines: 4096, Insert1: 0.1, Alpha2: a01, R: 16}
	_, mad5, _ := m5.DeviationStats(2048, 1024, nil)
	_, mad1, _ := m1.DeviationStats(2048, 1024, nil)
	if mad1 >= mad5 {
		t.Fatalf("MAD(I₁=0.1)=%v not below MAD(I₁=0.5)=%v", mad1, mad5)
	}
}

func BenchmarkScalingFactors(b *testing.B) {
	insert := []float64{0.1, 0.2, 0.3, 0.4}
	size := []float64{0.4, 0.3, 0.2, 0.1}
	for i := 0; i < b.N; i++ {
		if _, err := ScalingFactors(insert, size, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAEFFig4Cell pins §IV's model on Fig. 4's 9/1 cell: equal insertion
// shares, sizes 0.9/0.1, R = 16, α from Equation (1). The model gives
// 0.9412 and 0.8097, which the simulator measures (0.941 and 0.810,
// EXPERIMENTS.md); the paper's figure reads ≈ 0.86 for the small partition,
// which its own model does not give.
func TestAEFFig4Cell(t *testing.T) {
	s := []float64{0.9, 0.1}
	alpha, err := ScalingFactors([]float64{0.5, 0.5}, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(alpha[1], 1.6241, 1e-3) {
		t.Fatalf("α₂ = %.4f, want 1.6241", alpha[1])
	}
	for i, want := range []float64{0.9412, 0.8097} {
		if got := AEF(i, s, alpha, 16); !almost(got, want, 1e-3) {
			t.Errorf("AEF of part %d = %.4f, want %.4f", i, got, want)
		}
	}
}
