// Package clean breaks no fslint rule.
package clean

// Same reports whether two counts are equal.
func Same(a, b int) bool { return a == b }
