//go:build !fscount

package recency

// countCompact and countRelayout count a compaction's work (the slots it
// renumbers plus the bitmap words it scans) and a relayout in the fscount
// build (count_fscount.go); here they inline to nothing.
func countCompact(int32) {}
func countRelayout()     {}
