//go:build fscount

package hashing

import (
	"testing"

	"fscache/internal/stats"
)

// TestCounted pins the H3 evaluations of this package's kernels, counted by
// the fscount build: Family.Sum is one, a table pass for every member at
// once, whatever the member count. H3.Hash counts none, since its callers
// count it (inside, the call would break its inlining).
//
//	go test -tags fscount -run Counted ./internal/hashing
func TestCounted(t *testing.T) {
	const key = 0x9e3779b97f4a7c15
	h := NewH3(1, 4096)
	for _, row := range []struct {
		name string
		h3   uint64
		op   func()
	}{
		{"H3Hash", 0, func() { h.Hash(key) }},
		{"Family1Sum", 1, sum(NewFamily(1, 1, 4096))},
		{"Family4Sum", 1, sum(NewFamily(1, 4, 4096))},
		{"Family16Sum", 1, sum(NewFamily(1, 16, 4096))},
	} {
		before := stats.ReadCounted()
		row.op()
		if got, want := stats.ReadCounted().Sub(before), (stats.Counted{H3: row.h3}); got != want {
			t.Errorf("%s: counted %+v, want %+v", row.name, got, want)
		}
	}
}

// sum returns one Family.Sum of a fixed key, its buffer allocated up front.
func sum(f *Family) func() {
	buf := make([]uint64, f.Words())
	return func() { f.Sum(0x5eed, buf) }
}
