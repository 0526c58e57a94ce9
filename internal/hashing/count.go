//go:build !fscount

package hashing

// CountH3 counts one H3 evaluation in the fscount build (count_fscount.go);
// here it inlines to nothing. Callers count where they evaluate: inside
// H3.Hash the call would push it past the inlining budget.
func CountH3() {}
