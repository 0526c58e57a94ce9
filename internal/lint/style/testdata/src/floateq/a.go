// Package a exercises style's floateq rule: flagged and clean comparisons.
package a

func comparisons(x, y float64, f32 float32, i int) bool {
	_ = x == y   // want `floating-point == comparison`
	_ = x != y   // want `floating-point != comparison`
	_ = x == 0   // want `floating-point == comparison`
	_ = f32 == 1 // want `floating-point == comparison`

	_ = i == 0  // clean: integer comparison
	_ = x < y   // clean: ordering is well-defined
	_ = x >= 0  // clean
	if x == y { //fslint:ignore style suppressed on purpose for the harness
		return true
	}
	return i != 3 // clean
}

type ratio float64

func named(a, b ratio) bool {
	return a == b // want `floating-point == comparison`
}
