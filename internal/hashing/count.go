//go:build !fscount

package hashing

// CountH3 counts one H3 evaluation in the fscount build (count_fscount.go);
// here it inlines to nothing. Family.Sum counts its own table pass; H3.Hash's
// callers count where they evaluate, since inside it the call would push it
// past the inlining budget.
func CountH3() {}
