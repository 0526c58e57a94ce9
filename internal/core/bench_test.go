package core_test

import (
	"testing"

	"fscache/internal/perfbench"
)

// The access-path benchmarks live in internal/perfbench (shared with
// cmd/fsbench); these wrappers keep them reachable through `go test -bench`.
//
// Steady-state expectation (DESIGN.md §10): 0 allocs/op on every path below.
// BenchmarkAccessMiss (exact-LRU FS config) is the acceptance benchmark for
// the zero-allocation replacement pipeline.

func BenchmarkAccessHit(b *testing.B)             { perfbench.AccessHitLRU(b) }
func BenchmarkAccessMiss(b *testing.B)            { perfbench.AccessMissLRU(b) }
func BenchmarkAccessHitCoarse(b *testing.B)       { perfbench.AccessHitCoarse(b) }
func BenchmarkAccessMissCoarse(b *testing.B)      { perfbench.AccessMissCoarse(b) }
func BenchmarkAccessHitCoarseNoRef(b *testing.B)  { perfbench.AccessHitCoarseNoRef(b) }
func BenchmarkAccessMissCoarseNoRef(b *testing.B) { perfbench.AccessMissCoarseNoRef(b) }
func BenchmarkAccessMissZ52(b *testing.B)         { perfbench.AccessMissZ52(b) }
