package alloc

import (
	"math"
	"testing"

	"fscache/internal/xrand"
)

// TestApportion pins the largest-remainder apportionment: exact sums,
// proportionality, and deterministic lowest-index tie-breaks.
func TestApportion(t *testing.T) {
	cases := []struct {
		total   int
		weights []float64
		want    []int
	}{
		{10, []float64{1, 1}, []int{5, 5}},
		{10, []float64{1, 1, 1}, []int{4, 3, 3}}, // remainder to lowest index
		{7, []float64{3, 1}, []int{5, 2}},        // 5.25 → 5, 1.75 → 2
		{0, []float64{2, 5}, []int{0, 0}},        // nothing to hand out
		{5, []float64{0, 1}, []int{0, 5}},        // zero weight gets zero
		{100, []float64{1, 2, 3, 4}, []int{10, 20, 30, 40}},
		{11, []float64{2, 1, 2, 1}, []int{4, 2, 3, 2}}, // 3.67 1.83 3.67 1.83: the .83s first, then the lower .67
	}
	for _, c := range cases {
		if got := Apportion(c.total, c.weights); !equalInts(got, c.want) {
			t.Errorf("Apportion(%d, %v) = %v, want %v", c.total, c.weights, got, c.want)
		}
	}
}

// TestApportionProperties checks the contract over generated weights: a
// mix of zeros, repeated values (ties) and magnitudes from 1e-6 to 1e6.
func TestApportionProperties(t *testing.T) {
	rng := xrand.New(0xa99)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(12)
		total := rng.Intn(5000)
		weights := make([]float64, n)
		sum := 0.0
		for i := range weights {
			switch rng.Intn(4) {
			case 0: // stays zero
			case 1:
				weights[i] = float64(1 + rng.Intn(3))
			default:
				weights[i] = math.Exp((rng.Float64() - 0.5) * 28)
			}
			sum += weights[i]
		}
		if sum <= 0 {
			weights[rng.Intn(n)], sum = 1, 1
		}
		got := Apportion(total, weights)
		if again := Apportion(total, weights); !equalInts(got, again) {
			t.Fatalf("Apportion(%d, %v) = %v, then %v", total, weights, got, again)
		}
		given := 0
		for i, w := range weights {
			given += got[i]
			exact := float64(total) * w / sum
			if math.Abs(float64(got[i])-exact) >= 1 {
				t.Fatalf("Apportion(%d, %v)[%d] = %d, exact share %v", total, weights, i, got[i], exact)
			}
			if w <= 0 && got[i] != 0 {
				t.Fatalf("Apportion(%d, %v)[%d] = %d for a zero weight", total, weights, i, got[i])
			}
			// Equal weights have equal remainders: the lower index is
			// never the one left short.
			for j := i + 1; j < n; j++ {
				if math.Float64bits(weights[j]) == math.Float64bits(w) && got[j] > got[i] {
					t.Fatalf("Apportion(%d, %v): tie between %d and %d went to the higher index: %v", total, weights, i, j, got)
				}
			}
		}
		if given != total {
			t.Fatalf("Apportion(%d, %v) = %v, sums to %d", total, weights, got, given)
		}
	}
}

func TestApportionPanics(t *testing.T) {
	for _, c := range []struct {
		name    string
		weights []float64
	}{
		{"negative", []float64{1, -1, 3}},
		{"NaN", []float64{1, math.NaN()}},
		{"+Inf", []float64{math.Inf(1), 1}},
		{"zero sum", []float64{0, 0}},
		{"empty", nil},
		{"overflow", []float64{math.MaxFloat64, math.MaxFloat64}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights %v: no panic", c.name, c.weights)
				}
			}()
			Apportion(10, c.weights)
		}()
	}
}

func TestEvenSplit(t *testing.T) {
	for _, c := range []struct {
		lines int
		want  []int
	}{
		{12, []int{4, 4, 4}},
		{14, []int{5, 5, 4}}, // remainder on the low indices
		{2, []int{1, 1, 0}},
		{0, []int{0, 0, 0}},
	} {
		got := make([]int, len(c.want))
		EvenSplit(got, c.lines)
		if !equalInts(got, c.want) {
			t.Errorf("EvenSplit(%d over %d) = %v, want %v", c.lines, len(c.want), got, c.want)
		}
	}
}

// The equal-split allocation the util and QoS callers build: every line
// handed out, the odd line to partition 0, and no partitions is a panic.
func TestEvenSplitEqual(t *testing.T) {
	tg := make([]int, 3)
	EvenSplit(tg, 100)
	if tg[0]+tg[1]+tg[2] != 100 {
		t.Fatalf("sum = %d", tg[0]+tg[1]+tg[2])
	}
	if tg[0] != 34 || tg[1] != 33 || tg[2] != 33 {
		t.Fatalf("targets = %v", tg)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	EvenSplit(nil, 10)
}
