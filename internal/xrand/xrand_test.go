package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws of 1000", same)
	}
}

func TestSplitMix64Reference(t *testing.T) {
	// Reference values for seed 0 from the published splitmix64 algorithm:
	// its k-th draw is Mix64 of the state before the k-th increment.
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := Mix64(uint64(i) * 0x9e3779b97f4a7c15); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(13)
	const buckets = 10
	const n = 100000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	// Chi-squared with 9 dof: 99.9th percentile ~27.9.
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Fatalf("chi-squared = %v, distribution non-uniform: %v", chi2, counts)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(17)
	z := NewZipf(r, 1.0, 1000)
	const n = 100000
	counts := make([]int, 1000)
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 99 by roughly the 1/k law.
	if counts[0] < 5*counts[99] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[99]=%d", counts[0], counts[99])
	}
	// Head mass: with s=1, n=1000, top-10 ranks carry ~39% of probability.
	head := 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	frac := float64(head) / n
	if frac < 0.30 || frac > 0.50 {
		t.Fatalf("Zipf head mass = %v, want ~0.39", frac)
	}
}

// plainSearch is Zipf.rank as it was before the guide table: a binary search
// over the whole cdf.
func plainSearch(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func TestZipfGuideMatchesPlainSearch(t *testing.T) {
	for _, theta := range []float64{0.8, 0.9, 1.1} {
		for _, n := range []int{1, 2, 3, 4096, 12288, 65536} {
			z := NewZipf(New(29), theta, n)
			g := len(z.guide) - 1
			if g < n || g&(g-1) != 0 || (g > 1 && g/2 >= n) {
				t.Fatalf("theta %v n %d: guide has %d intervals", theta, n, g)
			}
			check := func(u float64) {
				t.Helper()
				if u < 0 || u >= 1 {
					return
				}
				if got, want := z.rank(u), plainSearch(z.cdf, u); got != want {
					t.Fatalf("theta %v n %d: rank(%v) = %d, plain search %d", theta, n, u, got, want)
				}
			}
			// Where the guided range changes, and where the answer does.
			for k := 0; k <= g; k++ {
				b := float64(k) / float64(g)
				check(math.Nextafter(b, -1))
				check(b)
				check(math.Nextafter(b, 2))
			}
			for _, c := range z.cdf {
				check(math.Nextafter(c, -1))
				check(c)
				check(math.Nextafter(c, 2))
			}
			// Next itself, against a twin stream.
			twin := New(29)
			for i := 0; i < 100000; i++ {
				if got, want := z.Next(), plainSearch(z.cdf, twin.Float64()); got != want {
					t.Fatalf("theta %v n %d: draw %d = %d, plain search %d", theta, n, i, got, want)
				}
			}
		}
	}
}

func TestZipfHigherSMoreSkewed(t *testing.T) {
	r1, r2 := New(19), New(19)
	z1 := NewZipf(r1, 0.5, 100)
	z2 := NewZipf(r2, 2.0, 100)
	top1, top2 := 0, 0
	const n = 50000
	for i := 0; i < n; i++ {
		if z1.Next() == 0 {
			top1++
		}
		if z2.Next() == 0 {
			top2++
		}
	}
	if top2 <= top1 {
		t.Fatalf("s=2.0 head (%d) not more skewed than s=0.5 head (%d)", top2, top1)
	}
}

func TestUint64nPowerOfTwoFastPath(t *testing.T) {
	r := New(23)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

// uint64nEager is Uint64n with the rejection threshold computed before every
// draw, the plain form of the method.
func uint64nEager(r *Rand, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n // == (2^64 - n) mod n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Uint64n computes its threshold only for a draw below n, and must return
// what the eager form does, draw for draw and with the same stream left
// behind. 2^63+1 rejects about half of all draws, so the rejecting path runs.
func TestUint64nMatchesEagerThreshold(t *testing.T) {
	const draws = 1 << 20
	for _, n := range []uint64{3, 5, 7, 12288, 1<<40 + 3, 1<<63 + 1, math.MaxUint64} {
		a, b := New(n), New(n)
		for i := 0; i < draws; i++ {
			if got, want := a.Uint64n(n), uint64nEager(b, n); got != want {
				t.Fatalf("n=%d, draw %d: Uint64n = %d, eager form %d", n, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: streams differ after %d draws", n, draws)
		}
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 10000; i++ {
		v := Mix64(i)
		if seen[v] {
			t.Fatalf("Mix64 collision at %d", i)
		}
		seen[v] = true
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(131072)
	}
	_ = sink
}
