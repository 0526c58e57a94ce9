package stats

import (
	"math"
	"testing"
	"testing/quick"

	"fscache/internal/xrand"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10)
	for _, x := range []float64{0.05, 0.15, 0.95, 1.0, 0.0} {
		h.Add(x)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d", h.N())
	}
	if !almost(h.Mean(), (0.05+0.15+0.95+1.0+0.0)/5, 1e-12) {
		t.Fatalf("Mean = %v", h.Mean())
	}
	cdf := h.CDF()
	if len(cdf) != 10 {
		t.Fatalf("CDF len = %d", len(cdf))
	}
	if cdf[9] != 1.0 {
		t.Fatalf("CDF final = %v, want 1", cdf[9])
	}
	// Two samples at or below 0.1 edge: 0.05 and 0.0.
	if !almost(cdf[0], 0.4, 1e-12) {
		t.Fatalf("CDF[0] = %v, want 0.4", cdf[0])
	}
}

func TestHistogramClamp(t *testing.T) {
	h := NewHistogram(4)
	h.Add(-0.5)
	h.Add(1.5)
	if h.N() != 2 {
		t.Fatalf("N = %d", h.N())
	}
	cdf := h.CDF()
	if !almost(cdf[0], 0.5, 1e-12) || !almost(cdf[3], 1, 1e-12) {
		t.Fatalf("clamped CDF wrong: %v", cdf)
	}
}

func TestHistogramUniformAEF(t *testing.T) {
	// Random evictions over uniform futility must give AEF 0.5 and a
	// diagonal CDF — the paper's worst case F_WC(x) = x (§III-C).
	h := NewHistogram(20)
	rng := xrand.New(1)
	for i := 0; i < 200000; i++ {
		h.Add(rng.Float64())
	}
	if !almost(h.Mean(), 0.5, 0.005) {
		t.Fatalf("uniform AEF = %v", h.Mean())
	}
	cdf := h.CDF()
	for i, c := range cdf {
		want := float64(i+1) / 20
		if !almost(c, want, 0.01) {
			t.Fatalf("CDF[%d] = %v, want %v", i, c, want)
		}
	}
}

func TestHistogramMaxOfRAEF(t *testing.T) {
	// Evicting the max of R uniform candidates gives AEF = R/(R+1). This is
	// the analytical anchor behind Fig. 2a's N=1 curve (R=16 → 0.941).
	const R = 16
	h := NewHistogram(50)
	rng := xrand.New(2)
	for i := 0; i < 100000; i++ {
		m := 0.0
		for j := 0; j < R; j++ {
			if v := rng.Float64(); v > m {
				m = v
			}
		}
		h.Add(m)
	}
	if !almost(h.Mean(), float64(R)/(R+1), 0.003) {
		t.Fatalf("max-of-%d AEF = %v, want %v", R, h.Mean(), float64(R)/(R+1))
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i) / 1000)
	}
	if q := h.Quantile(0.5); !almost(q, 0.5, 0.02) {
		t.Fatalf("median = %v", q)
	}
	if q := h.Quantile(0.9); !almost(q, 0.9, 0.02) {
		t.Fatalf("p90 = %v", q)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	// Empty histogram: every quantile is 0.
	empty := NewHistogram(10)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if v := empty.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, v)
		}
	}

	// All mass in one interior bucket: every quantile (including q=0, which
	// used to report the first bucket's edge) resolves to that bucket's
	// upper edge. Out-of-range q clamps.
	h := NewHistogram(10)
	h.Add(0.65)
	h.Add(0.65)
	for _, q := range []float64{-0.5, 0, 0.5, 1, 1.5} {
		if v := h.Quantile(q); !almost(v, 0.7, 1e-12) {
			t.Fatalf("Quantile(%v) = %v, want 0.7", q, v)
		}
	}

	// All mass in the top bucket.
	top := NewHistogram(4)
	top.Add(1.0)
	for _, q := range []float64{0, 0.5, 1} {
		if v := top.Quantile(q); v != 1 {
			t.Fatalf("top-bucket Quantile(%v) = %v, want 1", q, v)
		}
	}

	// Mass in first and last buckets: q=0 and q=1 pick the respective
	// occupied extremes.
	spread := NewHistogram(10)
	spread.Add(0.01)
	spread.Add(0.99)
	if v := spread.Quantile(0); !almost(v, 0.1, 1e-12) {
		t.Fatalf("spread Quantile(0) = %v, want 0.1", v)
	}
	if v := spread.Quantile(1); v != 1 {
		t.Fatalf("spread Quantile(1) = %v, want 1", v)
	}
}

func TestHistogramCloneAndCounts(t *testing.T) {
	h := NewHistogram(4)
	h.Add(0.1)
	h.Add(0.9)
	c := h.Clone()
	if c.N() != h.N() || c.Mean() != h.Mean() || c.Sum() != h.Sum() {
		t.Fatalf("clone summary mismatch: %v/%v vs %v/%v", c.N(), c.Mean(), h.N(), h.Mean())
	}
	// Mutating the clone must not touch the original.
	c.Add(0.5)
	if h.N() != 2 {
		t.Fatalf("clone mutation leaked into original: N = %d", h.N())
	}
	counts := h.Counts()
	if len(counts) != 4 || counts[0] != 1 || counts[3] != 1 {
		t.Fatalf("Counts = %v", counts)
	}
	counts[0] = 99
	if h.Counts()[0] != 1 {
		t.Fatal("Counts must return a copy")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(8), NewHistogram(8)
	a.Add(0.25)
	b.Add(0.75)
	b.Add(0.85)
	a.Merge(b)
	if a.N() != 3 {
		t.Fatalf("merged N = %d", a.N())
	}
	if !almost(a.Mean(), (0.25+0.75+0.85)/3, 1e-12) {
		t.Fatalf("merged Mean = %v", a.Mean())
	}
}

// TestHistogramMergePooledEquivalence pins the property the serving layer's
// per-connection latency accounting relies on (internal/server merges each
// connection's histogram into the global one at close): merging K disjoint
// histograms must be indistinguishable — counts, N, mean, every quantile,
// full CDF — from one histogram fed all samples directly, regardless of how
// the samples were sharded or the order the shards merge in.
func TestHistogramMergePooledEquivalence(t *testing.T) {
	const (
		buckets = 64
		shards  = 5
		samples = 4000
	)
	rng := xrand.New(0x4e11)
	pooled := NewHistogram(buckets)
	parts := make([]*Histogram, shards)
	for i := range parts {
		parts[i] = NewHistogram(buckets)
	}
	for i := 0; i < samples; i++ {
		x := rng.Float64() * rng.Float64() // skewed, like latencies
		pooled.Add(x)
		parts[rng.Intn(shards)].Add(x)
	}
	// Merge in a scrambled order, through an intermediate accumulator, to
	// catch any order- or associativity-sensitivity.
	merged := NewHistogram(buckets)
	for _, i := range []int{3, 0, 4, 2, 1} {
		merged.Merge(parts[i])
	}
	if merged.N() != pooled.N() {
		t.Fatalf("merged N = %d, pooled N = %d", merged.N(), pooled.N())
	}
	if !almost(merged.Mean(), pooled.Mean(), 1e-12) {
		t.Fatalf("merged Mean = %v, pooled Mean = %v", merged.Mean(), pooled.Mean())
	}
	mc, pc := merged.Counts(), pooled.Counts()
	for i := range mc {
		if mc[i] != pc[i] {
			t.Fatalf("bucket %d: merged %d, pooled %d", i, mc[i], pc[i])
		}
	}
	for q := 0.0; q <= 1.0; q += 1.0 / 64 {
		if m, p := merged.Quantile(q), pooled.Quantile(q); m != p {
			t.Fatalf("Quantile(%v): merged %v, pooled %v", q, m, p)
		}
	}
	mcdf, pcdf := merged.CDF(), pooled.CDF()
	for i := range mcdf {
		if mcdf[i] != pcdf[i] {
			t.Fatalf("CDF[%d]: merged %v, pooled %v", i, mcdf[i], pcdf[i])
		}
	}
}

// TestHistogramMergeEmpty pins both identity directions: merging an empty
// histogram changes nothing, and merging into an empty histogram clones the
// source's observable state.
func TestHistogramMergeEmpty(t *testing.T) {
	src := NewHistogram(16)
	for _, x := range []float64{0.1, 0.1, 0.5, 0.9} {
		src.Add(x)
	}
	before := src.Clone()
	src.Merge(NewHistogram(16))
	if src.N() != before.N() || src.Mean() != before.Mean() {
		t.Fatalf("merging empty changed state: N %d→%d, Mean %v→%v",
			before.N(), src.N(), before.Mean(), src.Mean())
	}
	for i, c := range src.Counts() {
		if c != before.Counts()[i] {
			t.Fatalf("merging empty changed bucket %d", i)
		}
	}

	dst := NewHistogram(16)
	dst.Merge(src)
	if dst.N() != src.N() || dst.Mean() != src.Mean() {
		t.Fatalf("merge into empty: N %d vs %d, Mean %v vs %v",
			dst.N(), src.N(), dst.Mean(), src.Mean())
	}
	for q := 0.0; q <= 1.0; q += 0.25 {
		if dst.Quantile(q) != src.Quantile(q) {
			t.Fatalf("merge into empty: Quantile(%v) %v vs %v", q, dst.Quantile(q), src.Quantile(q))
		}
	}
	// Empty-into-empty stays empty and quantiles stay at their zero value.
	e := NewHistogram(16)
	e.Merge(NewHistogram(16))
	if e.N() != 0 || e.Quantile(0.5) != 0 {
		t.Fatalf("empty merge: N=%d Quantile=%v", e.N(), e.Quantile(0.5))
	}
}

// A nil histogram is the empty one to every reader an unmeasured cache's
// statistics reach, and merging it changes nothing.
func TestHistogramNilIsEmpty(t *testing.T) {
	var h *Histogram
	if h.N() != 0 || h.Mean() != 0 || h.Sum() != 0 || h.Counts() != nil || h.Clone() != nil {
		t.Fatalf("nil histogram: N %d, Mean %v, Sum %v, Counts %v, Clone %v", h.N(), h.Mean(), h.Sum(), h.Counts(), h.Clone())
	}
	dst := NewHistogram(4)
	dst.Add(0.3)
	dst.Merge(h)
	if dst.N() != 1 || dst.Sum() != 0.3 {
		t.Fatalf("merging nil: N %d, Sum %v", dst.N(), dst.Sum())
	}
}

// TestHistogramMergeDoesNotAliasSource verifies Merge copies counts rather
// than retaining a reference: mutating the source afterwards must not leak
// into the destination.
func TestHistogramMergeDoesNotAliasSource(t *testing.T) {
	src := NewHistogram(8)
	src.Add(0.5)
	dst := NewHistogram(8)
	dst.Merge(src)
	src.Add(0.5)
	src.Add(0.125)
	if dst.N() != 1 {
		t.Fatalf("destination saw source mutations: N = %d", dst.N())
	}
}

func TestHistogramMergeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(4).Merge(NewHistogram(8))
}

func TestIntDist(t *testing.T) {
	d := NewIntDist()
	for _, v := range []int{-3, -1, 0, 1, 3} {
		d.Add(v)
	}
	if d.N() != 5 {
		t.Fatalf("N = %d", d.N())
	}
	if !almost(d.Mean(), 0, 1e-12) {
		t.Fatalf("Mean = %v", d.Mean())
	}
	if !almost(d.MAD(), 8.0/5, 1e-12) {
		t.Fatalf("MAD = %v", d.MAD())
	}
	values, cum := d.AbsCDF()
	if len(values) != 4 { // |v| in {0,1,3}: 0,1,3 → wait, 1 appears twice, 3 twice
		// values should be [0 1 3]
		if len(values) != 3 {
			t.Fatalf("AbsCDF values = %v", values)
		}
	}
	_ = cum
}

func TestIntDistAbsCDF(t *testing.T) {
	d := NewIntDist()
	for _, v := range []int{-2, -1, 0, 1, 2} {
		d.Add(v)
	}
	values, cum := d.AbsCDF()
	wantV := []int{0, 1, 2}
	wantC := []float64{0.2, 0.6, 1.0}
	if len(values) != 3 {
		t.Fatalf("values = %v", values)
	}
	for i := range wantV {
		if values[i] != wantV[i] || !almost(cum[i], wantC[i], 1e-12) {
			t.Fatalf("AbsCDF = %v,%v want %v,%v", values, cum, wantV, wantC)
		}
	}
	if q := d.Quantile(0.5); q != 1 {
		t.Fatalf("Quantile(0.5) = %d", q)
	}
}

func TestMeans(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { NewHistogram(0) },
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

// Property: CDF is monotone non-decreasing and ends at 1 for any sample set.
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHistogram(16)
		for _, x := range raw {
			h.Add(math.Abs(x) - math.Floor(math.Abs(x))) // fold into [0,1)
		}
		if h.N() == 0 {
			return true
		}
		cdf := h.CDF()
		prev := 0.0
		for _, c := range cdf {
			if c < prev {
				return false
			}
			prev = c
		}
		return almost(cdf[len(cdf)-1], 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MAD is within [0, max|x|].
func TestQuickMADBounded(t *testing.T) {
	f := func(raw []int16) bool {
		d := NewIntDist()
		maxAbs := 0.0
		for _, v := range raw {
			d.Add(int(v))
			maxAbs = math.Max(maxAbs, math.Abs(float64(v)))
		}
		return d.MAD() >= 0 && d.MAD() <= maxAbs+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// OccupancyError averages and maximises |size−target|/target over positive
// targets only, and reads 0 when there is none.
func TestOccupancyError(t *testing.T) {
	for _, c := range []struct {
		sizes, targets []int
		mean, worst    float64
	}{
		{[]int{90, 130, 7}, []int{100, 100, 0}, 0.2, 0.3},
		{[]int{5, 0}, []int{0, -1}, 0, 0},
		{[]int{50, 50}, []int{50, 50}, 0, 0},
	} {
		mean, worst := OccupancyError(c.sizes, c.targets)
		if !almost(mean, c.mean, 1e-12) || !almost(worst, c.worst, 1e-12) {
			t.Errorf("OccupancyError(%v, %v) = %v, %v; want %v, %v", c.sizes, c.targets, mean, worst, c.mean, c.worst)
		}
	}
	// One partition's error: what fsload prints per row.
	for _, c := range []struct {
		size, target int
		want         float64
	}{{130, 100, 0.3}, {90, 100, 0.1}, {7, 0, 0}, {5, -1, 0}} {
		if got := PartOccupancyError(c.size, c.target); !almost(got, c.want, 1e-12) {
			t.Errorf("PartOccupancyError(%d, %d) = %v, want %v", c.size, c.target, got, c.want)
		}
	}
}
