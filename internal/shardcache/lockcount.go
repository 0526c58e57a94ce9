//go:build !fscount

package shardcache

// countLock counts a stripe lock an access path takes in the fscount build
// (lockcount_fscount.go); here it inlines to nothing.
func countLock() {}
