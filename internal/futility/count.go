//go:build !fscount

package futility

// CountQuery counts one ranker query (a FutilityRaw or a CoarseTS.Distance)
// in the fscount build (count_fscount.go); here it inlines to nothing.
func CountQuery() {}
