// Command fsload is a closed-loop load generator for the sharded concurrent
// engine (internal/shardcache). It hammers one Engine with free-running
// worker goroutines for a fixed wall-clock duration while a background
// rebalancer redistributes per-partition targets, then reports aggregate
// throughput, per-worker access-latency quantiles and the per-partition
// occupancy error against the configured targets — the operational health
// check for the sharded engine, and the -race smoke test CI runs. The aef
// column is taken over the `measured` evictions beside it, those on the one
// lock stripe in four the engine samples; it reads "-" when there were none.
//
// Unlike the deterministic test driver (shardcache.RunDeterministic), fsload
// deliberately lets workers share shards and race against the rebalancer:
// the point is to exercise the engine the way a real concurrent client
// would. Throughput numbers therefore vary run to run; the occupancy errors
// should not (the feedback controllers converge regardless of interleaving).
//
// Examples:
//
//	fsload                                  # 4 shards, 4 workers, 5s
//	fsload -shards 1 -workers 4             # contention baseline
//	fsload -shards 2 -workers 4 -duration 2s -seed 7
//	fsload -stripes 4 -batch 32             # striped locks, batched submission
//	fsload -procs 1,2,4,8,16 -duration 1s   # GOMAXPROCS scaling sweep
//	fsload -scenario spec.yaml -duration 5s # scenario-driven workers (see below)
//
// With -scenario, the cache geometry (lines/ways), partition count, initial
// targets and per-worker address streams all come from a declarative
// scenario spec (internal/scenario) instead of the -lines/-ways/-parts
// flags and the built-in zipf mix. Each worker runs its own decorrelated
// interleaving of the compiled stream (re-seeded per worker, cycling for
// the whole -duration), so phase shifts, diurnal curves and scan storms
// from the spec all reach the concurrent engine; tenant-churn events are
// applied by worker 0 as live SetTargets updates racing the rebalancer —
// the concurrent counterpart of the deterministic fstables -scenario run.
//
// With -alloc, the initial targets only seed the run: every worker feeds
// the online allocator (internal/alloc), whose epoch decisions reach the
// engine through the rebalancer tick, and scenario churn vectors are
// ignored (the allocator notices departed tenants through decayed samples).
// Combine with -scenario to watch targets track workload phases:
//
//	fsload -scenario examples/scenarios/zipf-drift.yaml -alloc utility
//
// The -procs sweep runs one fresh engine per GOMAXPROCS setting and emits a
// single throughput/latency row per setting plus the speedup relative to
// the first setting — the data for the scaling curve in one invocation.
//
// With -net, fsload instead drives a running fsserve instance over TCP as
// a closed-loop client fleet that retries transport errors under a seeded,
// jittered exponential backoff (backoff.go), with optional hedging and
// optional network fault injection (see net.go):
//
//	fsload -net 127.0.0.1:7070 -workers 8 -duration 5s
//	fsload -net 127.0.0.1:7070 -faults -deadline 50ms -maxerr 0.05 -maxocc 0.25
//
// In either mode, -maxocc (and -maxerr in net mode) turn the report into a
// gate: fsload exits non-zero when the thresholds are not met.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/scenario"
	"fscache/internal/shardcache"
	"fscache/internal/stats"
	"fscache/internal/xrand"
)

// latCap is the latency histogram's full scale: samples are recorded as
// lat/latCap clamped to [0,1], so quantiles resolve to latCap/latBuckets
// (~195ns) and anything slower than latCap lands in the top bucket.
const (
	latCap     = 100 * time.Microsecond
	latBuckets = 512
)

// worker owns its slice of the measurement state: a seeded address stream, an
// access counter and a latency histogram nothing else touches until the run
// is over.
type worker struct {
	id   int
	ops  uint64
	hist *stats.Histogram
}

func main() {
	var (
		shards    = flag.Int("shards", 4, "shard count (power of two)")
		stripes   = flag.Int("stripes", 1, "lock stripes per shard (power of two)")
		workers   = flag.Int("workers", 4, "concurrent worker goroutines")
		duration  = flag.Duration("duration", 5*time.Second, "wall-clock run length")
		seed      = flag.Uint64("seed", 1, "workload seed (address streams; throughput still varies run to run)")
		lines     = flag.Int("lines", 4096, "total cache lines (power of two)")
		ways      = flag.Int("ways", 16, "associativity (power of two)")
		parts     = flag.Int("parts", 3, "partition count")
		batch     = flag.Int("batch", 1, "requests per batched submission (1 = plain Access path)")
		procsList = flag.String("procs", "", "GOMAXPROCS sweep: comma-separated settings (e.g. 1,2,4,8,16); one row per setting")
		rebalance = flag.Duration("rebalance", 250*time.Millisecond, "interval between target redistributions")
		maxOcc    = flag.Float64("maxocc", -1, "fail (exit 1) when the worst occupancy error exceeds this fraction; <0 disables")
		scen      = flag.String("scenario", "", "drive workers from this scenario spec file (overrides -lines/-ways/-parts and the synthetic address mix)")
		allocFl   = flag.String("alloc", "", "drive targets with the online allocator under this objective (utility|maxmin|phase; plus qos with -scenario) instead of the static split")

		netAddr   = flag.String("net", "", "network mode: drive the fsserve instance at this host:port instead of an in-process engine")
		setFrac   = flag.Float64("setfrac", 0.3, "net: fraction of requests that are SETs")
		keySpace  = flag.Int("keys", 65536, "net: per-tenant key-space size")
		deadline  = flag.Duration("deadline", 0, "net: wire deadline attached to each request (0 = none)")
		timeout   = flag.Duration("timeout", 2*time.Second, "net: client-side response wait")
		retries   = flag.Int("retries", 4, "net: retry budget per request")
		retryBase = flag.Duration("retrybase", 5*time.Millisecond, "net: first retry backoff (doubles per attempt, jittered)")
		retryMax  = flag.Duration("retrymax", 500*time.Millisecond, "net: retry backoff cap")
		hedge     = flag.Duration("hedge", 0, "net: reissue a GET on a fresh connection after this wait (0 disables)")
		faults    = flag.Bool("faults", false, "net: inject seeded network faults on client connections")
		faultSeed = flag.Uint64("faultseed", 2026, "net: fault injector seed")
		maxErr    = flag.Float64("maxerr", -1, "net: fail (exit 1) when the transport error rate exceeds this fraction; <0 disables")
	)
	flag.Parse()
	if *workers < 1 || *duration <= 0 || *parts < 1 {
		fail("need -workers >= 1, -duration > 0, -parts >= 1")
	}
	if *netAddr != "" {
		if *scen != "" {
			fail("-scenario drives the in-process engine; it cannot be combined with -net (give the spec to fsserve instead)")
		}
		if *allocFl != "" {
			fail("-alloc drives the in-process engine; it cannot be combined with -net (give -alloc to fsserve instead)")
		}
		if *setFrac < 0 || *setFrac >= 1 || *keySpace < 1 {
			fail("need 0 <= -setfrac < 1 and -keys >= 1")
		}
		os.Exit(runNet(netOpts{
			addr:      *netAddr,
			workers:   *workers,
			duration:  *duration,
			seed:      *seed,
			setFrac:   *setFrac,
			keySpace:  *keySpace,
			deadline:  *deadline,
			timeout:   *timeout,
			retries:   *retries,
			retryBase: *retryBase,
			retryMax:  *retryMax,
			hedge:     *hedge,
			faults:    *faults,
			faultSeed: *faultSeed,
			maxOcc:    *maxOcc,
			maxErr:    *maxErr,
		}))
	}

	if *batch < 1 {
		fail("need -batch >= 1")
	}
	opts := localOpts{
		shards:    *shards,
		stripes:   *stripes,
		workers:   *workers,
		duration:  *duration,
		seed:      *seed,
		lines:     *lines,
		ways:      *ways,
		parts:     *parts,
		batch:     *batch,
		rebalance: *rebalance,
	}
	if *scen != "" {
		ls, err := scenario.LoadSpec(*scen)
		if err != nil {
			fail(err.Error())
		}
		comp, err := scenario.Compile(ls.Spec, ls.Dir)
		if err != nil {
			fail(err.Error())
		}
		opts.comp = comp
		opts.lines = ls.Spec.Cache.Lines
		opts.ways = ls.Spec.Cache.Ways
		opts.parts = comp.Parts()
		fmt.Printf("fsload: scenario %s (%d clients, %d partitions)\n", ls.Spec.Name, len(comp.Clients), opts.parts)
	}
	opts.allocObj = *allocFl
	if *allocFl != "" {
		// Validate the objective up front so a sweep fails before its first
		// row rather than mid-run inside runLocal.
		var err error
		if opts.comp != nil {
			_, err = opts.comp.AllocObjective(*allocFl)
		} else {
			_, err = alloc.ByName(*allocFl)
		}
		if err != nil {
			fail(err.Error())
		}
	}

	if *procsList != "" {
		runSweep(opts, parseProcs(*procsList), *maxOcc)
		return
	}

	fmt.Printf("fsload: %d lines / %d ways / %d shards × %d stripes, %d workers, %d partitions, batch %d, %v\n",
		opts.lines, opts.ways, *shards, *stripes, *workers, opts.parts, *batch, *duration)

	r := runLocal(opts)

	fmt.Printf("\n  total: %d accesses in %v (%.2fM acc/s aggregate), %d rebalances\n",
		r.total, r.elapsed.Round(time.Millisecond), r.accPerSec/1e6, r.rebalances)
	fmt.Printf("\n  %-8s %12s %10s %10s %10s\n", "worker", "accesses", "p50", "p90", "p99")
	for _, w := range r.ws {
		fmt.Printf("  %-8d %12d %10v %10v %10v\n", w.id, w.ops,
			latQ(w.hist, 0.5), latQ(w.hist, 0.9), latQ(w.hist, 0.99))
	}

	fmt.Printf("\n  %-10s %8s %10s %10s %8s %10s %10s\n",
		"partition", "target", "occupancy", "error", "miss", "aef", "measured")
	for p := 0; p < opts.parts; p++ {
		ps := &r.snap.Parts[p]
		aef := "-" // no measured eviction: Mean() would print 0, outside (0, 1]
		if ps.EvictFutility.N() > 0 {
			aef = strconv.FormatFloat(ps.AEF(), 'f', 4, 64)
		}
		fmt.Printf("  %-10d %8d %10.1f %9.1f%% %8.4f %10s %10d\n",
			p, r.targets[p], r.occ[p], 100*r.occErr[p], ps.MissRate(), aef, ps.EvictFutility.N())
	}
	fmt.Println("  aef is the mean over the measured evictions: those on the stripes that carry the reference ranker")
	if *allocFl != "" {
		reallocs, drifts := 0, 0
		for _, d := range r.decisions {
			if d.Changed {
				reallocs++
			}
			if d.Drift {
				drifts++
			}
		}
		fmt.Printf("\n  alloc %s: %d epochs, %d reallocations, %d drift epochs, %d installs\n",
			*allocFl, r.epochs, reallocs, drifts, r.installs)
		tail := r.decisions
		const maxShown = 8
		if len(tail) > maxShown {
			fmt.Printf("  … %d earlier decisions elided; last %d (drift *, changed !):\n", len(tail)-maxShown, maxShown)
			tail = tail[len(tail)-maxShown:]
		}
		for _, d := range tail {
			mark, ch := " ", " "
			if d.Drift {
				mark = "*"
			}
			if d.Changed {
				ch = "!"
			}
			fmt.Printf("   %s%s e%-4d @%-10d div %.3f miss %.4f  %v\n",
				mark, ch, d.Epoch, d.Access, d.Divergence, d.MissRatio, d.Targets)
		}
	}

	fmt.Printf("\n  worst occupancy error: %.1f%%\n", 100*r.worst)
	if *maxOcc >= 0 && r.worst > *maxOcc {
		fail(fmt.Sprintf("worst occupancy error %.1f%% exceeds -maxocc %.1f%%", 100*r.worst, 100**maxOcc))
	}
}

// localOpts configures one in-process measurement run.
type localOpts struct {
	shards, stripes, workers  int
	lines, ways, parts, batch int
	duration, rebalance       time.Duration
	seed                      uint64
	// comp, when non-nil, replaces the synthetic zipf mix with compiled
	// scenario streams (one decorrelated interleaving per worker) and the
	// index-proportional targets with the spec's shares.
	comp *scenario.Compiled
	// allocObj, when non-empty, names the online allocation objective: every
	// worker feeds the allocator, the rebalancer installs its epoch targets,
	// and static targets (and scenario churn vectors) are ignored after the
	// initial split.
	allocObj string
}

// localResult is everything the reports need from one run.
type localResult struct {
	elapsed    time.Duration
	total      uint64
	accPerSec  float64
	rebalances uint64
	ws         []*worker
	targets    []int
	occ        []float64
	occErr     []float64
	worst      float64
	snap       core.Snapshot
	// installs and decisions report the online allocator's activity when
	// -alloc is set: rebalancer target installs, epochs closed, and the
	// retained decision log (oldest first).
	installs  uint64
	epochs    int
	decisions []alloc.Decision
}

// runLocal builds a fresh engine, hammers it with opts.workers goroutines
// for opts.duration while a background rebalancer redistributes targets,
// checks invariants after quiesce and returns the aggregates. Each call is
// independent, so sweep rows never share warmed state.
func runLocal(opts localOpts) localResult {
	e := shardcache.New(shardcache.Config{
		Lines:   opts.lines,
		Ways:    opts.ways,
		Shards:  opts.shards,
		Stripes: opts.stripes,
		Parts:   opts.parts,
		Ranking: futility.CoarseLRU,
		Seed:    opts.seed,
	})
	var targets []int
	if opts.comp != nil {
		targets = opts.comp.Targets(opts.lines, opts.comp.InitialLive())
	} else {
		// Targets proportional to partition index+1, summing exactly to
		// capacity, so the occupancy-error report has distinct
		// per-partition setpoints.
		weights := make([]float64, opts.parts)
		for p := range weights {
			weights[p] = float64(p + 1)
		}
		targets = make([]int, opts.parts)
		alloc.Apportion(opts.lines, weights, targets, make([]float64, opts.parts))
	}
	e.SetTargets(targets)

	// With -alloc, an online allocator samples every worker's accesses and
	// its epoch targets reach the engine through the rebalancer tick; the
	// static split above only seeds the first epoch.
	var a *alloc.Allocator
	var src shardcache.TargetSource
	if opts.allocObj != "" {
		a = newLoadAllocator(opts, targets)
		src = a
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	ws := make([]*worker, opts.workers)
	for i := range ws {
		ws[i] = &worker{id: i, hist: stats.NewHistogram(latBuckets)}
	}
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			var next func() (uint64, int)
			if opts.comp != nil {
				next = scenarioFeed(e, opts, w.id)
			} else {
				rng := xrand.New(xrand.Mix64(opts.seed^0xf10ad) ^ xrand.Mix64(uint64(w.id+1)))
				zipf := xrand.NewZipf(rng, 0.9, 4*opts.lines)
				next = func() (uint64, int) {
					part := rng.Intn(opts.parts)
					// Mix64-finalized structured keys; see shardcache.BuildSchedule
					// on H3 null spaces for why raw low-entropy keys are unsafe.
					return xrand.Mix64(uint64(part+1)<<24 + uint64(zipf.Next())), part
				}
			}
			if opts.batch > 1 {
				b := e.NewBatch()
				reqs := make([]shardcache.Access, opts.batch)
				results := make([]core.AccessResult, opts.batch)
				for !stop.Load() {
					for i := range reqs {
						reqs[i].Addr, reqs[i].Part = next()
					}
					t0 := time.Now()
					b.Access(reqs, results)
					// Amortized per-access latency: the whole flush divided
					// by its size, recorded once per request for comparable
					// quantiles against the unbatched path.
					lat := time.Since(t0) / time.Duration(opts.batch)
					if a != nil {
						for i := range reqs {
							a.Observe(reqs[i].Part, reqs[i].Addr)
						}
					}
					s := float64(lat) / float64(latCap)
					for range reqs {
						w.hist.Add(s)
					}
					w.ops += uint64(opts.batch)
				}
				return
			}
			for !stop.Load() {
				addr, part := next()
				t0 := time.Now()
				e.Access(addr, part)
				lat := time.Since(t0)
				if a != nil {
					a.Observe(part, addr)
				}
				w.hist.Add(float64(lat) / float64(latCap))
				w.ops++
			}
		}(w)
	}
	rb := e.StartRebalancerSource(opts.rebalance, src)

	time.Sleep(opts.duration)
	stop.Store(true)
	wg.Wait()
	rb.Stop()
	elapsed := time.Since(start)

	if err := e.CheckInvariants(); err != nil {
		fail(fmt.Sprintf("engine invariants violated after run: %v", err))
	}

	r := localResult{
		elapsed:    elapsed,
		rebalances: rb.Rebalances(),
		ws:         ws,
		targets:    targets,
		occ:        make([]float64, opts.parts),
		occErr:     make([]float64, opts.parts),
		snap:       e.Snapshot(),
	}
	if a != nil {
		r.installs = rb.Installs()
		r.epochs = a.Epoch()
		r.decisions, _ = a.Log()
	}
	if opts.comp != nil || a != nil {
		// Scenario churn or the online allocator may have retargeted
		// partitions mid-run; report occupancy error against the targets the
		// engine actually holds.
		for p := 0; p < opts.parts; p++ {
			r.targets[p] = r.snap.Parts[p].Target
		}
	}
	for _, w := range ws {
		r.total += w.ops
	}
	r.accPerSec = float64(r.total) / elapsed.Seconds()
	for p := 0; p < opts.parts; p++ {
		r.occ[p] = e.MeanOccupancy(p)
		if r.targets[p] > 0 {
			// Dead (churned-out) tenants hold target 0; their residual
			// occupancy decays at the eviction rate, so a relative error
			// against 0 is not meaningful and they are skipped here.
			r.occErr[p] = math.Abs(r.occ[p]-float64(r.targets[p])) / float64(r.targets[p])
		}
		if r.occErr[p] > r.worst {
			r.worst = r.occErr[p]
		}
	}
	if r.snap.Accesses != r.total {
		fail(fmt.Sprintf("accounting: engine recorded %d accesses, workers performed %d", r.snap.Accesses, r.total))
	}
	return r
}

// newLoadAllocator builds the online allocator for one run. Scenario runs
// take the spec-derived configuration (objective, floors, epoch length);
// synthetic runs use the alloc package defaults over the flag geometry. The
// objective name was validated in main, so failures here are config bugs.
func newLoadAllocator(opts localOpts, initial []int) *alloc.Allocator {
	if opts.comp != nil {
		cfg, err := opts.comp.AllocConfig(opts.allocObj)
		if err != nil {
			fail(err.Error())
		}
		return alloc.New(cfg)
	}
	obj, err := alloc.ByName(opts.allocObj)
	if err != nil {
		fail(err.Error())
	}
	return alloc.New(alloc.Config{
		Parts:     opts.parts,
		Lines:     opts.lines,
		Objective: obj,
		Initial:   append([]int(nil), initial...),
		Seed:      opts.seed,
	})
}

// scenarioFeed returns a worker's address source for scenario mode: its own
// re-seeded interleaving of the compiled stream, cycled for the whole run
// (one pass covers spec.Accesses operations; wall-clock runs keep going).
// Worker 0 doubles as the churn driver, applying tenant-churn target vectors
// to the live engine as its stream reaches them; other workers skip churn
// ops so the target vector has a single writer besides the rebalancer. With
// -alloc, churn vectors are dropped entirely: the allocator is the sole
// target authority and notices departed tenants through decayed samples.
func scenarioFeed(e *shardcache.Engine, opts localOpts, id int) func() (uint64, int) {
	seed := func(epoch uint64) uint64 {
		return xrand.Mix64(opts.comp.Spec.Seed ^ uint64(id+1)*0x9e3779b97f4a7c15 ^ epoch*0xbf58476d1ce4e5b9)
	}
	epoch := uint64(0)
	st := opts.comp.NewStreamSeeded(opts.lines, seed(0))
	var op scenario.Op
	return func() (uint64, int) {
		for {
			if !st.Next(&op) {
				epoch++
				st = opts.comp.NewStreamSeeded(opts.lines, seed(epoch))
				continue
			}
			if op.Kind == scenario.OpChurn {
				if id == 0 && opts.allocObj == "" {
					e.SetTargets(op.Targets)
				}
				continue
			}
			// Mix64-finalize the structured scenario address (a bijection,
			// so client address spaces stay disjoint); see
			// shardcache.BuildSchedule on H3 null spaces.
			return xrand.Mix64(op.Access.Addr), op.Part
		}
	}
}

// runSweep runs one fresh engine per GOMAXPROCS setting and prints one
// throughput/latency row per setting, plus the speedup relative to the
// first setting — the whole scaling curve in one invocation.
func runSweep(opts localOpts, procs []int, maxOcc float64) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	fmt.Printf("fsload sweep: %d lines / %d ways / %d shards × %d stripes, %d workers, %d partitions, batch %d, %v per setting (num_cpu %d)\n\n",
		opts.lines, opts.ways, opts.shards, opts.stripes, opts.workers, opts.parts, opts.batch, opts.duration, runtime.NumCPU())
	fmt.Printf("  %-6s %12s %10s %10s %10s %10s %8s %8s\n",
		"procs", "accesses", "acc/s", "p50", "p90", "p99", "occ-err", "speedup")

	base := 0.0
	worstOcc := 0.0
	for i, p := range procs {
		runtime.GOMAXPROCS(p)
		r := runLocal(opts)
		merged := stats.NewHistogram(latBuckets)
		for _, w := range r.ws {
			merged.Merge(w.hist)
		}
		if i == 0 {
			base = r.accPerSec
		}
		if r.worst > worstOcc {
			worstOcc = r.worst
		}
		fmt.Printf("  %-6d %12d %9.2fM %10v %10v %10v %7.1f%% %7.2fx\n",
			p, r.total, r.accPerSec/1e6,
			latQ(merged, 0.5), latQ(merged, 0.9), latQ(merged, 0.99),
			100*r.worst, r.accPerSec/base)
	}
	if maxOcc >= 0 && worstOcc > maxOcc {
		fail(fmt.Sprintf("worst occupancy error %.1f%% exceeds -maxocc %.1f%%", 100*worstOcc, 100*maxOcc))
	}
}

// parseProcs parses the -procs comma list.
func parseProcs(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fail(fmt.Sprintf("bad -procs entry %q (need positive integers)", f))
		}
		out = append(out, n)
	}
	return out
}

// latQ converts a histogram quantile (a fraction of latCap) back to a
// duration.
func latQ(h *stats.Histogram, q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(latCap)).Round(10 * time.Nanosecond)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "fsload:", msg)
	os.Exit(1)
}
