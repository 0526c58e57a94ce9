package stats

import "math"

// This file holds the sanctioned floating-point comparison helpers. The
// fslint floateq analyzer forbids raw ==/!= between floats everywhere in
// non-test code — futility ranks, miss ratios and α·f products are all
// results of long rounding sequences, so exact comparison silently encodes
// an assumption about evaluation order. Code that needs equality goes
// through one of these; the few exact comparisons below are the single
// place that assumption is allowed and documented.

// FeqEps reports whether a and b are equal within eps, relative to the
// larger magnitude but never tighter than eps itself:
// |a−b| ≤ eps·max(1, |a|, |b|). NaN equals nothing.
func FeqEps(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //fslint:ignore floateq fast path; also handles equal infinities exactly
		return true
	}
	m := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= eps*m
}

// Feq is FeqEps with a tolerance suited to the simulator's quantities
// (futilities in [0,1], miss ratios, IPCs): comfortably above accumulated
// rounding noise, far below any physically meaningful difference.
func Feq(a, b float64) bool { return FeqEps(a, b, 1e-9) }
