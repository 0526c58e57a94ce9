package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// workloadDef is one named workload. run performs one trial — set-up, timed
// section, output checks — against a fresh system built from rc's seed.
type workloadDef struct {
	Name string
	Why  string
	Loop string
	// FixedWork marks the single-goroutine simulations: a fixed number of
	// accesses whose every outcome is a function of the seed, so that two
	// trials differ in host time only.
	FixedWork bool
	run       func(rc *runCtx) *trial
	// layers measures the standalone per-layer rows this workload loads,
	// from the same generated inputs, into out.
	layers func(rc *runCtx, out map[string]float64, t *trial)
}

var workloads = []workloadDef{
	{
		Name:   "serve-get-hot",
		Why:    "depth-1 GETs of resident keys over loopback: wire, conn goroutines, syscalls, admission, store.Get and the engine hit path; eviction, store.Put and the allocator do nothing",
		Loop:   "closed, K connections, depth 1",
		run:    func(rc *runCtx) *trial { return runServe(rc, serveGetHot) },
		layers: func(rc *runCtx, out map[string]float64, t *trial) { serveLayers(rc, serveGetHot, out, t) },
	},
	{
		Name:   "serve-set-churn",
		Why:    "cache-aside GET/SET plus 20% overwrites of 1 KiB values over 4x the capacity: the same server doing writes, engine misses, evictions, store.Put/Delete copies and GC",
		Loop:   "closed, K connections, depth 1",
		run:    func(rc *runCtx) *trial { return runServe(rc, serveSetChurn) },
		layers: func(rc *runCtx, out map[string]float64, t *trial) { serveLayers(rc, serveSetChurn, out, t) },
	},
	{
		Name:   "serve-pipelined-get",
		Why:    "serve-get-hot with 16 GET frames per write: handleGetRun and shardcache.Batch, syscalls amortised 16x so per-request server code dominates",
		Loop:   "closed, K connections, depth 16",
		run:    func(rc *runCtx) *trial { return runServe(rc, servePipelinedGet) },
		layers: func(rc *runCtx, out map[string]float64, t *trial) { serveLayers(rc, servePipelinedGet, out, t) },
	},
	{
		Name:   "engine-shared-mixed",
		Why:    "K goroutines on one shardcache.Engine with the online allocator and rebalancer, no network: stripe-lock wait and cross-core line sharing dominate, the server is bypassed",
		Loop:   "closed, K goroutines",
		run:    runEngine,
		layers: engineLayers,
	},
	{
		Name:      "sim-fs-coarse-32p",
		Why:       "the paper's section-V hardware configuration (16-way H3 array, coarse timestamps, FS feedback, 32 partitions) on one goroutine: no locks or wire, deterministic counts",
		Loop:      "single goroutine, fixed access count",
		run:       func(rc *runCtx) *trial { return runSim(rc, simCoarse) },
		FixedWork: true,
		layers:    func(rc *runCtx, out map[string]float64, t *trial) { simLayers(rc, simCoarse, out, t) },
	},
	{
		Name:      "sim-fs-exact-z52",
		Why:       "the same core over a 52-candidate zcache with the exact treap LRU ranker and a scan storm: rank queries and zcache walks own the time, the coarse path none",
		Loop:      "single goroutine, fixed access count",
		run:       func(rc *runCtx) *trial { return runSim(rc, simZ52) },
		FixedWork: true,
		layers:    func(rc *runCtx, out map[string]float64, t *trial) { simLayers(rc, simZ52, out, t) },
	},
}

// systemSeed roots the hash functions, treap priorities and sampling salts
// of every system the benchmark builds. It is configuration, not input:
// -seed varies what the systems are asked to do, never how they are built,
// so two seeds compare the same cache on different traffic.
const systemSeed = 1

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// reduce folds a metric's per-trial values into the reported one (see
// metricKind).
func (d *workloadDef) reduce(m metricDef, xs []float64) float64 {
	switch {
	case !d.FixedWork || m.Kind != kindTiming || len(xs) == 0:
		return median(xs)
	case m.Higher:
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// runCtx is what one trial is given.
type runCtx struct {
	seed  uint64
	k     int           // client connections / worker goroutines
	dur   time.Duration // timed section of the time-bounded workloads
	smoke bool          // shrink the fixed-size inputs (tests)
	tr    *tracer       // non-nil on the traced trial only
}

// scale shrinks a fixed count in smoke runs.
func (rc *runCtx) scale(n int) int {
	if rc.smoke {
		return max(n/16, 1)
	}
	return n
}

// trial is what one trial measured.
type trial struct {
	setup time.Duration
	wall  time.Duration
	ops   uint64
	res   resDelta

	// Per-slice samples of the timed section.
	rates []float64 // operations per second, whole system
	p50s  []float64 // microseconds
	p99s  []float64 // microseconds
	// latSamples counts the individual latency observations behind p50s
	// and p99s (round trips on serve-*, slices elsewhere).
	latSamples int
	// tripOps is how many operations one traced "rpc" span covers.
	tripOps int

	heapMB   float64
	hitRatio float64
	occErr   float64
	aef      float64
	calibNS  float64

	attempted uint64
	failed    uint64
	problems  []string

	// digest folds every access outcome of a sim workload; equal seeds must
	// give equal digests.
	digest uint64
	// layer holds per-layer rows the trial itself observed (counts, spans).
	layer map[string]float64
	// profile is the CPU profile of a traced trial.
	profile []byte
}

// whole returns the trial's whole-run quantities by metric name: the
// end-to-end metrics and the untracedRows (fail_ratio, a total over trials,
// excepted).
func (t *trial) whole() map[string]float64 {
	ops := float64(max(t.ops, 1))
	return map[string]float64{
		"setup_s":       t.setup.Seconds(),
		"ops_per_s":     median(t.rates),
		"lat_p50_us":    median(t.p50s),
		"lat_p99_us":    median(t.p99s),
		"cpu_us_per_op": t.res.cpuUS / ops,
		"heap_mb":       t.heapMB,
		"hit_ratio":     t.hitRatio,
		"occ_fit":       max(1-t.occErr, 0),
		"aef":           t.aef,
		"allocs_per_op": float64(t.res.mallocs) / ops,
		"bytes_per_op":  float64(t.res.bytes) / ops,
		"miss_ratio":    1 - t.hitRatio,
		"occ_err_max":   t.occErr,
	}
}

// sliceLatencies sets the latency percentiles of a slice-timed trial from
// its slices' microseconds per operation.
func (t *trial) sliceLatencies(per []float64) {
	sorted := sortedCopy(per)
	t.p50s = []float64{percentileSorted(sorted, 0.5)}
	t.p99s = []float64{percentileSorted(sorted, 0.99)}
	t.latSamples = len(per)
}

// check records one output check.
func (t *trial) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.problems) < 16 {
			t.problems = append(t.problems, fmt.Sprintf(format, args...))
		}
	}
}

// section brackets a trial's timed section with the process accounting
// every workload shares. begin is called when set-up is done and end right
// after the last operation.
type section struct {
	t        *trial
	rc       *runCtx
	trialAt  time.Time
	baseHeap uint64
	startAt  time.Time
	startRes resSample
	prof     bytes.Buffer
}

// newSection starts a trial's clock; everything until begin is set-up.
func newSection(rc *runCtx) *section {
	return &section{t: &trial{layer: map[string]float64{}}, rc: rc, trialAt: time.Now()}
}

// inputsReady marks the end of input generation: the heap the inputs and
// the generator's own buffers occupy is taken as the baseline, so heap_mb
// is what the system under test added.
func (s *section) inputsReady() { s.baseHeap = heapAfterGC() }

func (s *section) begin() {
	runtime.GC()
	s.t.calibNS = calibrate()
	if s.rc.tr != nil {
		if err := pprof.StartCPUProfile(&s.prof); err != nil {
			s.t.check(false, "cpu profile: %v", err)
		}
	}
	s.t.setup = time.Since(s.trialAt)
	s.startRes = sampleRes()
	s.startAt = time.Now()
}

func (s *section) end(ops uint64) {
	s.t.wall = time.Since(s.startAt)
	endRes := sampleRes()
	if s.rc.tr != nil {
		pprof.StopCPUProfile()
		s.t.profile = s.prof.Bytes()
	}
	s.t.ops = ops
	s.t.res = endRes.since(s.startRes)
	heap := heapAfterGC()
	s.t.heapMB = float64(max(heap, s.baseHeap)-s.baseHeap) / (1 << 20)
}
