// Command fsload is a closed-loop load generator. Free-running workers drive
// one target for a fixed wall-clock duration; fsload then reports throughput,
// merged latency quantiles and each partition's size against its target.
// Only the target differs between modes: the worker loop, report and gates
// are shared.
//
// The engine target (engine.go) is an in-process shardcache.Engine whose
// workers run free, unlike the deterministic stripe-ownership protocol of
// shardcache's tests, and race a background rebalancer with -alloc; the run
// fails on an engine invariant
// violation or when the engine's access count differs from the workers'.
// Without -scenario the geometry is fixed (4096 lines, 16 ways, 3 partitions
// with 1:2:3 targets, a zipf stream per worker). -scenario takes geometry,
// targets, per-worker address streams and churn from a spec; -alloc lets the
// online allocator move the targets. The note column is each partition's AEF
// over the evictions on the stripes that carry the reference ranker ("-"
// with none).
//
// The net target (net.go, -net) is a retrying, optionally hedging and
// fault-injecting TCP client fleet against a running fsserve.
//
//	fsload -stripes 16 -batch 32            # finer locks, batched submission
//	fsload -scenario examples/scenarios/zipf-drift.yaml -alloc utility
//	fsload -net 127.0.0.1:7070 -faults -deadline 50ms -maxerr 0.05
//
// Engine-only flags (-stripes -batch -scenario -alloc) are rejected
// with -net, net-only flags (-keys -deadline -hedge -faults -maxerr) without
// it. -maxocc gates the worst instantaneous size error (the time-averaged
// occupancy is printed, but a short run's mean is dominated by the cold
// fill) and -maxerr the failed-request rate; a missed gate exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/stats"
)

// The synthetic engine geometry (-scenario picks any other) and the net
// client's request mix and retry policy.
const (
	synthLines = 4096
	synthWays  = 16
	synthParts = 3
	allocPoll  = 250 * time.Millisecond // how often the rebalancer polls -alloc's allocator

	setFrac     = 0.3 // fraction of net requests that are SETs
	netTimeout  = 2 * time.Second
	maxRetries  = 4
	retryBase   = 5 * time.Millisecond
	retryMax    = 500 * time.Millisecond
	retryJitter = 0.2 // a retry waits (1 ± retryJitter)× its nominal delay
	faultSeed   = 2026
)

// latBuckets is the latency histograms' resolution: samples are recorded as
// lat/latCap clamped to [0,1], where each target picks its latCap.
const latBuckets = 512

// options is one run's configuration: the parsed flags.
type options struct {
	stripes, workers, batch int
	duration                time.Duration
	seed                    uint64
	maxOcc                  float64
	scenario, alloc         string

	net             string
	keys            int
	deadline, hedge time.Duration
	faults          bool
	maxErr          float64
}

// engineOnly and netOnly name the flags that apply to one target.
var (
	engineOnly = []string{"stripes", "batch", "scenario", "alloc"}
	netOnly    = []string{"keys", "deadline", "hedge", "faults", "maxerr"}
)

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("fsload", flag.ContinueOnError)
	fs.IntVar(&o.stripes, "stripes", 4, "lock stripes (power of two)")
	fs.IntVar(&o.workers, "workers", 4, "concurrent worker goroutines")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "wall-clock run length")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed (address streams; throughput still varies run to run)")
	fs.IntVar(&o.batch, "batch", 1, "requests per batched submission (1 = plain Access path)")
	fs.Float64Var(&o.maxOcc, "maxocc", -1, "fail (exit 1) when the worst partition size error exceeds this fraction; <0 disables")
	fs.StringVar(&o.scenario, "scenario", "", "drive workers from this scenario spec file (geometry, targets and address streams)")
	fs.StringVar(&o.alloc, "alloc", "", "drive targets with the online allocator under this objective (utility|maxmin|phase; plus qos with -scenario)")
	fs.StringVar(&o.net, "net", "", "drive the fsserve instance at this host:port instead of an in-process engine")
	fs.IntVar(&o.keys, "keys", 65536, "net: per-tenant key-space size")
	fs.DurationVar(&o.deadline, "deadline", 0, "net: wire deadline attached to each request (0 = none)")
	fs.DurationVar(&o.hedge, "hedge", 0, "net: reissue a GET on a fresh connection after this wait (0 disables)")
	fs.BoolVar(&o.faults, "faults", false, "net: inject seeded network faults on client connections")
	fs.Float64Var(&o.maxErr, "maxerr", -1, "net: fail (exit 1) when the failed-request rate exceeds this fraction; <0 disables")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case o.net != "" && slices.Contains(engineOnly, f.Name):
			err = fmt.Errorf("-%s drives the in-process engine; it cannot be combined with -net", f.Name)
		case o.net == "" && slices.Contains(netOnly, f.Name):
			err = fmt.Errorf("-%s applies only with -net", f.Name)
		}
	})
	if err == nil && o.alloc != "" && (o.alloc != "qos" || o.scenario == "") {
		_, err = alloc.ByName(o.alloc)
	}
	if err == nil && (o.workers < 1 || o.duration <= 0 || o.batch < 1 || o.keys < 1) {
		err = errors.New("need -workers >= 1, -duration > 0, -batch >= 1 and -keys >= 1")
	}
	return o, err
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsload:", err)
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// step performs one closed-loop request, or one batch of n, and reports how
// many operations it issued, the latency of each, and whether they succeeded.
type step func() (n int, lat time.Duration, ok bool)

// partRow is one partition's state after the run. note is the target's own
// column: AEF for the engine, class and ladder counts for a server tenant.
type partRow struct {
	target, size int
	meanOcc      float64
	miss         float64
	note         string
}

// target is what the workers drive.
type target interface {
	// describe is the report's header line.
	describe() string
	// latCap is the latency histograms' full scale.
	latCap() time.Duration
	// worker returns worker i's step. stop is set when the run ends; a step
	// that can block for long (a retrying rpc) gives up once it is.
	worker(i int, stop *atomic.Bool) step
	// finish runs once every worker has stopped, given the operations they
	// issued: per-partition rows, extra report lines, and an error when the
	// run is invalid whatever the gates say.
	finish(ops uint64) (rows []partRow, notes []string, err error)
}

// worker is one goroutine's private measurement state, merged after the run.
type worker struct {
	ops, errs uint64
	hist      *stats.Histogram
}

// usageError is a flag value only the target can reject once it knows its
// geometry; run exits 2 on it, as main does on any other bad flag.
type usageError struct{ error }

// run drives the target o selects and returns the process exit code.
func run(o options, stdout, stderr io.Writer) int {
	var t target
	var err error
	if o.net != "" {
		t, err = newNetTarget(o)
	} else {
		t, err = newEngineTarget(o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fsload:", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return drive(t, o, stdout, stderr)
}

// drive runs o.workers closed-loop workers against t for o.duration, prints
// the report and applies the gates.
func drive(t target, o options, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "fsload: %s; %d workers, %v\n", t.describe(), o.workers, o.duration)

	latCap := t.latCap()
	var stop atomic.Bool
	var wg sync.WaitGroup
	ws := make([]worker, o.workers)
	start := time.Now()
	for i := range ws {
		w := &ws[i]
		w.hist = stats.NewHistogram(latBuckets)
		next := t.worker(i, &stop)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				n, lat, ok := next()
				w.ops += uint64(n)
				if !ok {
					w.errs += uint64(n)
					continue
				}
				s := float64(lat) / float64(latCap)
				for range n {
					w.hist.Add(s)
				}
			}
		}()
	}
	time.Sleep(o.duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var ops, errs uint64
	merged := stats.NewHistogram(latBuckets)
	for i := range ws {
		ops += ws[i].ops
		errs += ws[i].errs
		merged.Merge(ws[i].hist)
	}
	rows, notes, finishErr := t.finish(ops)

	errRate := 0.0
	if ops > 0 {
		errRate = float64(errs) / float64(ops)
	}
	latQ := func(q float64) time.Duration {
		return time.Duration(merged.Quantile(q) * float64(latCap)).Round(latCap / 10000)
	}
	fmt.Fprintf(stdout, "\n  total: %d ops in %v (%.1fk ops/s), %d failed (%.2f%%)\n",
		ops, elapsed.Round(time.Millisecond), float64(ops)/elapsed.Seconds()/1e3, errs, 100*errRate)
	fmt.Fprintf(stdout, "  latency: p50 %v  p90 %v  p99 %v\n", latQ(0.5), latQ(0.9), latQ(0.99))
	fmt.Fprintf(stdout, "\n  %-9s %8s %8s %8s %10s %8s  %s\n", "partition", "target", "size", "error", "meanocc", "miss", "note")
	sizes, targets := make([]int, len(rows)), make([]int, len(rows))
	for p, r := range rows {
		// Dead (churned-out) tenants hold target 0 and their residue decays
		// at the eviction rate, so they carry no relative error.
		e := stats.PartOccupancyError(r.size, r.target)
		sizes[p], targets[p] = r.size, r.target
		fmt.Fprintf(stdout, "  %-9d %8d %8d %7.1f%% %10.1f %8.4f  %s\n", p, r.target, r.size, 100*e, r.meanOcc, r.miss, r.note)
	}
	_, worst := stats.OccupancyError(sizes, targets)
	fmt.Fprintln(stdout)
	for _, n := range notes {
		fmt.Fprintln(stdout, " ", n)
	}
	fmt.Fprintf(stdout, "  worst occupancy error: %.1f%%\n", 100*worst)

	code := 0
	failf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "fsload: FAIL: "+format+"\n", args...)
		code = 1
	}
	if finishErr != nil {
		failf("%v", finishErr)
	}
	if ops == 0 {
		failf("no operations completed")
	}
	if o.maxErr >= 0 && errRate > o.maxErr {
		failf("failed-request rate %.2f%% exceeds -maxerr %.2f%%", 100*errRate, 100*o.maxErr)
	}
	if o.maxOcc >= 0 && worst > o.maxOcc {
		failf("worst occupancy error %.1f%% exceeds -maxocc %.1f%%", 100*worst, 100*o.maxOcc)
	}
	return code
}
