package alloc

import "math"

// Apportion splits total into integer shares proportional to weights with
// largest-remainder rounding: shares sum exactly to total, every share is
// within one of its exact proportion, a zero weight gets a zero share, and
// the result is a deterministic function of (total, weights) with ties
// broken by the lowest index. It panics on a negative or non-finite weight
// and when the weights sum to zero or overflow.
func Apportion(total int, weights []float64) []int {
	sum := 0.0
	for _, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			panic("alloc: apportionment weight negative or not finite")
		}
		sum += w
	}
	if sum <= 0 || math.IsInf(sum, 1) {
		panic("alloc: apportionment weights sum to zero or overflow")
	}
	shares := make([]int, len(weights))
	rems := make([]float64, len(weights))
	used := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		shares[i] = int(exact)
		rems[i] = exact - float64(shares[i])
		used += shares[i]
	}
	for used < total {
		best := -1
		bestRem := -1.0
		for i, r := range rems {
			if r > bestRem {
				bestRem = r
				best = i
			}
		}
		shares[best]++
		rems[best] = -2 // consumed; lowest index wins remaining ties
		used++
	}
	return shares
}

// EvenSplit fills out with lines spread evenly, the remainder on the low
// indices. out must not be empty.
func EvenSplit(out []int, lines int) {
	n := len(out)
	base, rem := lines/n, lines%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
}
