package main

import (
	"runtime"
	"time"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
)

// The two sim-* workloads: one goroutine replays a fixed number of
// pre-generated accesses through a core.Cache. Everything but host time is
// a pure function of the seed, so hit_ratio, occ_fit, aef, the core.*
// counts and the outcome digest repeat exactly; a change in any of them is
// a change in behaviour, not noise.

// simSpec is what distinguishes the sim-* workloads.
type simSpec struct {
	lines    int
	parts    int
	warm     int // accesses before statistics are reset
	measured int // timed accesses
	sliceOps int
	build    func() *core.Cache
	targets  func() []int
	gen      func(seed uint64, warm, n int) []access
}

var simCoarse = &simSpec{
	lines: 32768, parts: simCoarseParts, warm: 500_000, measured: 1_500_000, sliceOps: 2000,
	build: func() *core.Cache {
		return core.New(core.Config{
			Array:     cachearray.NewSetAssoc(32768, 16, cachearray.IndexH3, systemSeed),
			Ranker:    futility.New(futility.CoarseLRU, 32768, simCoarseParts, systemSeed+1),
			Reference: futility.New(futility.Reference(futility.CoarseLRU), 32768, simCoarseParts, systemSeed+2),
			Scheme:    core.NewFSFeedback(simCoarseParts, core.FSFeedbackConfig{}),
			Parts:     simCoarseParts,
		})
	},
	targets: simCoarseTargets,
	gen:     func(seed uint64, _, n int) []access { return genSimCoarse(seed, n) },
}

var simZ52 = &simSpec{
	lines: 16384, parts: 2, warm: 150_000, measured: 600_000, sliceOps: 500,
	build: func() *core.Cache {
		return core.New(core.Config{
			Array:  cachearray.NewZCache(16384, 4, 3, systemSeed),
			Ranker: futility.New(futility.LRU, 16384, 2, systemSeed+1),
			Scheme: core.NewFSFeedback(2, core.FSFeedbackConfig{}),
			Parts:  2,
		})
	},
	targets: func() []int { return []int{10923, 5461} },
	gen:     func(seed uint64, warm, n int) []access { return genSimZ52(seed, warm, n, 16384) },
}

// foldResult mixes one access outcome into the digest.
func foldResult(d uint64, r core.AccessResult) uint64 {
	w := uint64(0)
	if r.Hit {
		w = 1
	}
	if r.Evicted {
		w |= 2 | uint64(r.EvictedLine)<<2 | uint64(r.EvictedPart)<<40
	}
	return (d ^ w) * 1099511628211
}

func runSim(rc *runCtx, spec *simSpec) *trial {
	sec := newSection(rc)
	t := sec.t
	warm, measured := rc.scale(spec.warm), rc.scale(spec.measured)
	measured -= measured % spec.sliceOps
	stream := spec.gen(rc.seed, warm, warm+measured)
	durs := make([]float64, 0, measured/spec.sliceOps)
	sec.inputsReady()

	c := spec.build()
	targets := spec.targets()
	c.SetTargets(targets)
	digest := uint64(14695981039346656037)
	for _, a := range stream[:warm] {
		digest = foldResult(digest, c.Access(a.Addr, a.Part, trace.NoNextUse))
	}
	c.ResetStats()
	var tb *spanBuf
	if rc.tr != nil {
		tb = rc.tr.buf()
	}

	sec.begin()
	prev := sec.startAt
	for at := warm; at < len(stream); at += spec.sliceOps {
		for j, a := range stream[at : at+spec.sliceOps] {
			if tb != nil && j&(traceEvery-1) == 0 {
				sp := tb.begin("core.Access.miss", -1, uint64(at+j))
				r := c.Access(a.Addr, a.Part, trace.NoNextUse)
				tb.end(sp)
				if r.Hit {
					tb.spans[sp].Name = "core.Access.hit"
				}
				digest = foldResult(digest, r)
				continue
			}
			digest = foldResult(digest, c.Access(a.Addr, a.Part, trace.NoNextUse))
		}
		now := time.Now()
		durs = append(durs, float64(now.Sub(prev)))
		prev = now
	}
	sec.end(uint64(measured))
	runtime.KeepAlive(stream) // part of the heap baseline until end has read the heap

	// The access count is fixed and the stream has phases, so a slice is not
	// a sample of a steady state: the rate is the whole run's, and only the
	// latency percentiles look at slices.
	t.rates = []float64{float64(measured) / t.wall.Seconds()}
	per := make([]float64, len(durs)) // microseconds per access
	for i, d := range durs {
		per[i] = d / float64(spec.sliceOps) / 1e3
	}
	t.sliceLatencies(per)
	t.digest = digest
	t.attempted += uint64(measured)

	snap := c.StatsSnapshot()
	counts := countsOf(snap)
	counts.record(engineCounts{}, t)
	t.hitRatio = float64(counts.hits) / float64(max(counts.hits+counts.misses, 1))
	for p, tg := range targets {
		d := (c.MeanOccupancy(p) - float64(tg)) / float64(tg)
		t.occErr = max(t.occErr, d, -d)
	}
	t.check(counts.hits+counts.misses == uint64(measured), "cache counted %d accesses, drove %d", counts.hits+counts.misses, measured)
	err := c.CheckInvariants()
	t.check(err == nil, "cache invariants: %v", err)
	if rc.tr != nil {
		t.layer["core.snapshot_us"] = blockNS(20, 1, func() { snap = c.StatsSnapshot() }) / 1e3
	}
	return t
}
