package futility_test

import (
	"testing"

	"fscache/internal/perfbench"
)

// The ranker benchmarks live in internal/perfbench (shared with
// cmd/fsbench); these wrappers keep them reachable through `go test -bench`.
// Steady-state expectation (DESIGN.md §10): 0 allocs/op on all six — the
// coarse OnHit, bare and recorded distance reads and CDF quantile and the
// exact-LRU hit and rank are pure array work.

func BenchmarkCoarseOnHit(b *testing.B)    { perfbench.CoarseOnHit(b) }
func BenchmarkCoarseDistance(b *testing.B) { perfbench.CoarseDistance(b) }
func BenchmarkCoarseRaw(b *testing.B)      { perfbench.CoarseRaw(b) }
func BenchmarkCoarseFutility(b *testing.B) { perfbench.CoarseFutility(b) }
func BenchmarkExactLRUHit(b *testing.B)    { perfbench.ExactLRUHit(b) }
func BenchmarkExactLRURank(b *testing.B)   { perfbench.ExactLRURank(b) }
