// Package dirty breaks one style rule.
package dirty

// Same compares floats exactly.
func Same(a, b float64) bool { return a == b }
