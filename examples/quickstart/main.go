// Quickstart: build a Futility-Scaling partitioned cache from its three
// components (array ⊕ futility ranking ⊕ scheme), give two tenants very
// different targets, hammer it with skewed traffic and watch FS hold the
// partition sizes while keeping associativity high.
package main

import (
	"fmt"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

func main() {
	const (
		lines = 16384 // 1 MB of 64 B lines
		parts = 2
	)

	// 1. The three components of the paper's cache model (§III-A):
	//    a 16-way set-associative array, the hardware coarse-timestamp LRU
	//    ranking (§V), and the feedback Futility Scaling scheme.
	array := cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, 1)
	ranker := futility.NewCoarseTS(lines, parts)
	scheme := core.NewFSFeedback(parts, core.FSFeedbackConfig{}) // l=16, Δα=2

	// An exact-LRU reference ranker measures true eviction futility (AEF)
	// while the scheme decides with 8-bit timestamps.
	ref := futility.NewExactLRU(lines, parts)

	cache := core.New(core.Config{
		Array:     array,
		Ranker:    ranker,
		Reference: ref,
		Scheme:    scheme,
		Parts:     parts,
	})

	// 2. Allocation: tenant 0 gets 75% of the cache, tenant 1 gets 25%.
	cache.SetTargets([]int{3 * lines / 4, lines / 4})

	// 3. Traffic: tenant 1 inserts 4× more than tenant 0 — without
	//    enforcement it would swallow the cache.
	rng := xrand.New(3)
	next := [parts]uint64{1 << 40, 2 << 40}
	for i := 0; i < 40*lines; i++ {
		p := 0
		if rng.Float64() < 0.8 {
			p = 1
		}
		// Fresh lines (streaming worst case for sizing control).
		cache.Access(next[p], p, trace.NoNextUse)
		next[p]++
	}

	fmt.Println("Futility Scaling quickstart — 1 MB shared L2, 2 tenants")
	fmt.Printf("%-8s %10s %10s %10s %8s\n", "tenant", "target", "actual", "occ/tgt", "AEF")
	for p := 0; p < parts; p++ {
		tgt := cache.Targets()[p]
		fmt.Printf("%-8d %10d %10d %10.3f %8.3f\n",
			p, tgt, cache.Sizes()[p],
			float64(cache.Sizes()[p])/float64(tgt),
			cache.Stats(p).AEF())
	}
	fmt.Printf("\nscaling factors α = %v\n", scheme.Alphas())
	fmt.Println("tenant 1's futility is scaled up, so its 4× insertion")
	fmt.Println("pressure still cannot grow it past its 25% allocation;")
	fmt.Println("AEF stays near 0.9, against 16/17 ≈ 0.94 for 16 uniform")
	fmt.Println("candidates — associativity is preserved.")
}
