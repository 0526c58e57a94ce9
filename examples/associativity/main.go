// Associativity example: §III's motivating observation, live. Partition a
// cache with the Partitioning-First scheme into more and more pieces and
// watch the average eviction futility (AEF) collapse from the R/(R+1)
// optimum toward the 0.5 coin-flip worst case — then run Futility Scaling
// in the same configurations and watch it stay flat.
package main

import (
	"fmt"

	"fscache/internal/analytic"
	"fscache/internal/baselines"
	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

const (
	lines = 8192
	r     = 16
)

func main() {
	fmt.Println("Partitioning-induced associativity loss (cf. Fig. 2a / §IV-C)")
	fmt.Printf("random-candidates cache, %d lines, R=%d, equal partitions, equal pressure\n\n", lines, r)
	fmt.Printf("%6s %10s %10s %14s\n", "N", "PF AEF", "FS AEF", "ideal (R/R+1)")
	ideal := analytic.UnpartitionedAEF(r)
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		pf := measure(baselines.NewPF(n), n)
		fs := measure(core.NewFSFixed(n), n) // α=1 everywhere: I/S = 1
		fmt.Printf("%6d %10.3f %10.3f %14.3f\n", n, pf, fs, ideal)
	}
	fmt.Println("\nPF's victim pool shrinks to ~R/N candidates per partition, so its")
	fmt.Println("evictions degrade toward random (AEF → 0.5). FS always picks from")
	fmt.Println("the full candidate list; with equal I/S ratios no scaling is needed")
	fmt.Println("and every partition keeps the unpartitioned optimum.")
}

// measure runs n equally-pressured streaming partitions and returns the
// AEF of partition 0.
func measure(scheme core.Scheme, n int) float64 {
	cache := core.New(core.Config{
		Array:  cachearray.NewRandom(lines, r, 5),
		Ranker: futility.NewExactLRU(lines, n),
		Scheme: scheme,
		Parts:  n,
	})
	targets := make([]int, n)
	for i := range targets {
		targets[i] = lines / n
	}
	cache.SetTargets(targets)
	rng := xrand.New(7)
	next := make([]uint64, n)
	for i := range next {
		next[i] = uint64(i+1) << 40
	}
	for i := 0; i < 30*lines; i++ {
		p := rng.Intn(n)
		cache.Access(next[p], p, trace.NoNextUse)
		next[p]++
	}
	return cache.Stats(0).AEF()
}
