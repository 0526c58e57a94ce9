//go:build !fscount

package shardcache

// countLock counts a stripe lock taken in the fscount build
// (lockcount_fscount.go); here it inlines to nothing.
func countLock() {}
