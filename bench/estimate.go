package main

import (
	"cmp"
	"math"
	"slices"
)

// Estimators. Every timing metric is the median over trials of the median
// over slices of the timed section, so one preempted slice or one noisy
// trial moves nothing; percentiles are taken per slice first and then go
// through the same two medians.

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy[T cmp.Ordered](xs []T) []T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentileSorted returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the smallest element with at least p·n elements at or
// below it. It returns the zero value for an empty slice.
func percentileSorted[T cmp.Ordered](s []T, p float64) T {
	var zero T
	if len(s) == 0 {
		return zero
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the middle element of xs (mean of the two middle ones for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method: the k-th cut sits at
// position k·(n+1)/4, interpolated linearly, clamped to the data). It needs
// at least two values; with fewer both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)) - float64(4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise figure the bounds are judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m <= 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}
