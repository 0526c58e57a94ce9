// Tuning example: explore the feedback controller's two knobs (§V /
// Algorithm 2) — the interval length l and the changing ratio Δα — on a
// two-tenant cache with mismatched pressure, and see why the paper lands
// on l = 16 and Δα = 2 (a bit shift in hardware).
package main

import (
	"fmt"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/stats"
	"fscache/internal/trace"
	"fscache/internal/workload"
	"fscache/internal/xrand"
)

const lines = 8192

func main() {
	fmt.Println("FS feedback tuning: two tenants, 3:1 insertion pressure, equal split")
	fmt.Printf("%10s %8s %12s %12s\n", "interval", "Δα", "size MAD", "AEF")
	for _, l := range []int{4, 16, 64, 256} {
		row := run(core.FSFeedbackConfig{Interval: l, Delta: 2})
		fmt.Printf("%10d %8.2f %12.1f %12.3f\n", l, 2.0, row.mad, row.aef)
	}
	fmt.Println()
	for _, d := range []float64{1.25, 1.5, 2, 4} {
		row := run(core.FSFeedbackConfig{Interval: 16, Delta: d})
		fmt.Printf("%10d %8.2f %12.1f %12.3f\n", 16, d, row.mad, row.aef)
	}
	fmt.Println("\nShort intervals react fast but thrash the scaling factor (noisy")
	fmt.Println("sizing); long intervals lag. Large Δα overshoots, hurting the")
	fmt.Println("scaled partition's associativity. l=16 with Δα=2 — exactly one")
	fmt.Println("bit-shift step per 16 events — is the sweet spot, and is what the")
	fmt.Println("hardware design implements with a 3-bit saturating shift register.")
}

type row struct {
	mad float64
	aef float64
}

func run(cfg core.FSFeedbackConfig) row {
	const parts = 2
	scheme := core.NewFSFeedback(parts, cfg)
	cache := core.New(core.Config{
		Array:          cachearray.NewRandom(lines, 16, 1),
		Ranker:         futility.NewCoarseTS(lines, parts),
		Reference:      futility.NewExactLRU(lines, parts),
		Scheme:         scheme,
		Parts:          parts,
		TrackDeviation: true,
	})
	cache.SetTargets([]int{lines / 2, lines / 2})

	mcf, err := workload.ByName("mcf")
	if err != nil {
		panic(err)
	}
	gens := []trace.Generator{
		mcf.Shrunk(8).NewGenerator(3, 0),
		mcf.Shrunk(8).NewGenerator(3, 1),
	}
	rng := xrand.New(4)
	insert := func(p int) {
		for {
			if !cache.Access(gens[p].Next().Addr, p, trace.NoNextUse).Hit {
				return
			}
		}
	}
	// Fill, settle, then measure.
	for cache.Sizes()[0]+cache.Sizes()[1] < lines {
		p := 0
		if cache.Sizes()[1] < lines/2 {
			p = 1
		}
		insert(p)
	}
	measuring := false
	dev := stats.NewIntDist()
	for i := 0; i < 20*lines; i++ {
		p := 0
		if rng.Float64() < 0.25 {
			p = 1
		}
		insert(p)
		if i == 5*lines {
			cache.ResetStats()
			measuring = true
		}
		if measuring {
			dev.Add(cache.Sizes()[0] - lines/2)
		}
	}
	return row{mad: dev.MAD(), aef: cache.Stats(0).AEF()}
}
