package main

import (
	"sync"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/shardcache"
)

// engine-shared-mixed: K goroutines drive one shardcache.Engine directly,
// every access also fed to the online allocator whose targets a background
// rebalancer installs. No wire, no store.

const (
	engineParts    = 3
	engineSliceOps = 2000
	engineOccEvery = 16 // worker 0 samples occupancy once per this many slices
)

// engineTargets is the 3:2:1 split the engine starts from.
func engineTargets() []int { return []int{8192, 5461, 2731} }

func newAllocator() *alloc.Allocator {
	return alloc.New(alloc.Config{
		Parts: engineParts, Lines: serveLines, Objective: alloc.MaxHits{},
		Initial: engineTargets(), Seed: systemSeed,
	})
}

// engineWorker is one closed-loop goroutine's state.
type engineWorker struct {
	stream []access
	pos    int
	ops    uint64
	hits   uint64
	durs   []float64 // nanoseconds per slice
	tb     *spanBuf
}

// slice performs engineSliceOps accesses.
func (w *engineWorker) slice(e *shardcache.Engine, al *alloc.Allocator) {
	if w.pos+engineSliceOps > len(w.stream) {
		w.pos = 0
	}
	for j, a := range w.stream[w.pos : w.pos+engineSliceOps] {
		if w.tb != nil && j&(traceEvery-1) == 0 {
			req := w.ops + uint64(j)
			root := w.tb.begin("op", -1, req)
			sp := w.tb.begin("shardcache.Access", root, req)
			res := e.Access(a.Addr, a.Part)
			w.tb.end(sp)
			sp = w.tb.begin("alloc.Observe", root, req)
			al.Observe(a.Part, a.Addr)
			w.tb.end(sp)
			w.tb.end(root)
			if res.Hit {
				w.hits++
			}
			continue
		}
		if e.Access(a.Addr, a.Part).Hit {
			w.hits++
		}
		al.Observe(a.Part, a.Addr)
	}
	w.pos += engineSliceOps
	w.ops += engineSliceOps
}

func runEngine(rc *runCtx) *trial {
	sec := newSection(rc)
	t := sec.t
	workers := make([]*engineWorker, rc.k)
	for i := range workers {
		workers[i] = &engineWorker{stream: genEngineStream(rc.seed, i, rc.scale(1<<20), serveLines)}
		// 100 ns per access is faster than an uncontended hit, so the log
		// never grows inside the timed section.
		workers[i].durs = make([]float64, 0, int(rc.dur.Nanoseconds()/(100*engineSliceOps))+64)
	}
	sec.inputsReady()

	e := shardcache.New(engineConfig(engineParts))
	e.SetTargets(engineTargets())
	al := newAllocator()
	rb := e.StartRebalancerSource(50*time.Millisecond, al)

	var wg sync.WaitGroup
	run := func(body func(w *engineWorker, first bool)) {
		for i, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(w, i == 0)
			}()
		}
		wg.Wait()
	}
	warmSlices := rc.scale(200_000) / engineSliceOps
	run(func(w *engineWorker, _ bool) {
		for range warmSlices {
			w.slice(e, al)
		}
		w.ops, w.hits = 0, 0
	})
	base := countsOf(e.Snapshot())
	if rc.tr != nil {
		for _, w := range workers {
			w.tb = rc.tr.buf()
		}
	}

	occ := newOccSampler(engineParts)
	sec.begin()
	deadline := sec.startAt.Add(rc.dur)
	run(func(w *engineWorker, first bool) {
		prev := sec.startAt
		for n := 0; prev.Before(deadline); n++ {
			w.slice(e, al)
			now := time.Now()
			w.durs = append(w.durs, float64(now.Sub(prev)))
			prev = now
			if first && n%engineOccEvery == 0 {
				occ.sample(e)
			}
		}
	})
	var ops, hits uint64
	for _, w := range workers {
		ops += w.ops
		hits += w.hits
	}
	sec.end(ops)
	rb.Stop()

	var per []float64 // microseconds per access, one entry per slice
	for _, w := range workers {
		for _, d := range w.durs {
			per = append(per, d/engineSliceOps/1e3)
			t.rates = append(t.rates, float64(rc.k)*engineSliceOps/d*1e9)
		}
	}
	t.sliceLatencies(per)
	t.attempted += ops
	t.hitRatio = float64(hits) / float64(max(ops, 1))
	t.occErr = occ.err()
	countsOf(e.Snapshot()).record(base, t)
	t.layer["shardcache.rebalances"] = float64(rb.Rebalances())
	t.layer["shardcache.target_installs"] = float64(rb.Installs())
	t.layer["alloc.epochs"] = float64(al.Epoch())
	checkEngine(t, e)
	return t
}
