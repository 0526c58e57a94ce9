// Command bench is the repository's end-to-end and per-layer benchmark: six
// named workloads driven through the public APIs of internal/server,
// internal/shardcache and internal/core from one process, every output
// checked, every metric printed by name and unit. See README.md.
//
//	go run -C bench . -seed 20140621            # every workload, table + -out JSON
//	go run -C bench . -sets 2                   # twice, and compare the two
//	go run -C bench . -compare old.json new.json
//	sh bench/run.sh --workload serve-get-hot --seed 1 --seconds 10 --trace 0
//
// The last form is BENCHMARK.json's: one workload per process, one JSON
// object on the last line of standard output.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

const defaultSeed = 20140621

// options is the parsed command line.
type options struct {
	seed     uint64
	workload string
	seconds  float64
	trace    int
	sets     int
	smoke    bool
	out      string
	traceOut string
	compare  bool
	spec     bool
	args     []string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed every generated input derives from")
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print one JSON result line (BENCHMARK.json mode)")
	fs.Float64Var(&o.seconds, "seconds", 0, "timed seconds: per run with -workload (default 10), per trial otherwise (default 4)")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced trial")
	fs.IntVar(&o.sets, "sets", 1, "run the whole benchmark this many times; with 2, print the comparison of the two")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny run: 1 trial of 0.3 s, fixed-size inputs cut 16x, every check on")
	fs.StringVar(&o.out, "out", "", "write the full JSON report here")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced trials' spans here, one JSON object per line")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out reports: -compare old.json new.json")
	fs.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as the program's metric and workload tables define it")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.args = fs.Args()
	switch {
	case o.compare && len(o.args) != 2:
		return nil, fmt.Errorf("-compare takes two report files")
	case !o.compare && len(o.args) != 0:
		return nil, fmt.Errorf("unexpected argument %q", o.args[0])
	case o.workload != "" && findWorkload(o.workload) == nil:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	case o.trace != 0 && o.trace != 1:
		return nil, fmt.Errorf("-trace is 0 or 1")
	case o.sets < 1 || o.seconds < 0:
		return nil, fmt.Errorf("-sets must be positive and -seconds not negative")
	}
	if o.smoke {
		o.seconds = 0.3
	}
	return o, nil
}

// trials is the number of untraced trials per workload: 5, cut to 3 where
// one run's seconds are split over them (BENCHMARK.json mode).
func (o *options) trials() int {
	switch {
	case o.smoke:
		return 1
	case o.workload != "":
		return 3
	}
	return 5
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	switch {
	case o.spec:
		var b []byte
		if b, err = benchmarkSpec(); err == nil {
			_, err = w.Write(b)
		}
	case o.compare:
		err = compareFiles(w, o.args[0], o.args[1])
	case o.workload != "":
		err = runOne(w, o)
	default:
		err = runAll(w, o)
	}
	if err != nil {
		w.Flush()
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func clientCount() int { return min(runtime.NumCPU(), 4) }

func stamp(o *options, trials int, seconds float64) envStamp {
	env := envStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		K:          clientCount(),
		Seed:       o.seed,
		Trials:     trials,
		Seconds:    seconds,
		Smoke:      o.smoke,
		CalibNS:    calibrate(),
		Degraded:   runtime.NumCPU() < 2,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	return env
}

// errChecks is returned when any output check failed; the report has the
// details.
var errChecks = fmt.Errorf("output checks failed")

// errChanged is returned when a comparison found a fixed-work workload's
// outcomes changed for the same seed.
var errChanged = fmt.Errorf("a fixed-work workload's outcomes differ for the same seed")

// runOne is BENCHMARK.json mode: one workload, one JSON line. Untraced, the
// timed seconds are split over the trials; traced, a third goes to the
// untraced reference trial the overhead is measured against.
func runOne(w *bufio.Writer, o *options) error {
	def := findWorkload(o.workload)
	seconds := o.seconds
	if seconds <= 0 {
		seconds = 10
	}
	files := &spanFile{path: o.traceOut}
	var res *workloadResult
	var env envStamp
	metrics := map[string]value{}
	if o.trace == 0 {
		per := seconds / float64(o.trials())
		env = stamp(o, o.trials(), per)
		var trials []*trial
		for range o.trials() {
			trials = append(trials, def.run(newRunCtx(o, per, nil)))
		}
		res = summarize(def, env, trials)
		metrics = res.EndToEnd
	} else {
		env = stamp(o, 1, seconds/3)
		ref := def.run(newRunCtx(o, seconds/3, nil))
		res = summarize(def, env, []*trial{ref})
		traced(def, o, 2*seconds/3, []*trial{ref}, res, files)
		metrics = res.PerLayer
	}
	if err := files.flush(); err != nil {
		return err
	}
	if o.out != "" {
		rep := &report{Env: env, Workloads: map[string]*workloadResult{def.Name: res}}
		if err := writeJSON(o.out, rep); err != nil {
			return err
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "problem:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, stripTrials(metrics)})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return errChecks
	}
	return nil
}

func stripTrials(m map[string]value) map[string]value {
	out := make(map[string]value, len(m))
	for k, v := range m {
		v.Trials = nil
		out[k] = v
	}
	return out
}

func newRunCtx(o *options, seconds float64, tr *tracer) *runCtx {
	return &runCtx{
		seed:  o.seed,
		k:     clientCount(),
		dur:   time.Duration(seconds * float64(time.Second)),
		smoke: o.smoke,
		tr:    tr,
	}
}

// runAll runs every workload: trials interleaved round-robin across the
// workloads, so that slow drift of the machine hits all of them alike, then
// one traced trial each.
func runAll(w *bufio.Writer, o *options) error {
	seconds := o.seconds
	if seconds <= 0 {
		seconds = 4
	}
	files := &spanFile{path: o.traceOut}
	var reports []*report
	failed := false
	for set := range o.sets {
		rep := &report{Env: stamp(o, o.trials(), seconds), Workloads: map[string]*workloadResult{}}
		trials := make([][]*trial, len(workloads))
		for n := range o.trials() {
			for i := range workloads {
				fmt.Fprintf(w, "# set %d trial %d %s\n", set+1, n+1, workloads[i].Name)
				w.Flush()
				trials[i] = append(trials[i], workloads[i].run(newRunCtx(o, seconds, nil)))
			}
		}
		for i := range workloads {
			def := &workloads[i]
			fmt.Fprintf(w, "# set %d traced %s\n", set+1, def.Name)
			w.Flush()
			res := summarize(def, rep.Env, trials[i])
			tracedSeconds := 10.0
			if o.smoke {
				tracedSeconds = seconds
			}
			traced(def, o, tracedSeconds, trials[i], res, files)
			rep.Workloads[def.Name] = res
			failed = failed || !res.Correct
		}
		printReport(w, rep)
		reports = append(reports, rep)
	}
	if err := files.flush(); err != nil {
		return err
	}
	if o.out != "" {
		if err := writeJSON(o.out, reports[len(reports)-1]); err != nil {
			return err
		}
	}
	if len(reports) == 2 && printComparison(w, reports[0], reports[1]) > 0 {
		return errChanged
	}
	if failed {
		return errChecks
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summarize reduces a workload's untraced trials to its end-to-end metrics
// and untracedRows.
func summarize(def *workloadDef, env envStamp, trials []*trial) *workloadResult {
	res := &workloadResult{
		Why: def.Why, Loop: def.Loop,
		Samples:  map[string]int{"trials": len(trials)},
		EndToEnd: map[string]value{},
		untraced: map[string]value{},
	}
	if env.Degraded && !def.FixedWork {
		res.Problems = append(res.Problems, "degraded: nproc < 2, the parallel clients time-slice one core; do not read this as scaling")
	}
	per := map[string][]float64{}
	for _, t := range trials {
		res.absorb(t)
		res.Samples["slices"] += len(t.rates)
		res.Samples["latency_samples"] += t.latSamples
		for name, v := range t.whole() {
			per[name] = append(per[name], v)
		}
	}
	for _, m := range endToEnd {
		res.EndToEnd[m.Name] = value{Value: def.reduce(m, per[m.Name]), Unit: m.Unit, Trials: per[m.Name]}
	}
	for _, m := range untracedRows {
		res.untraced[m.Name] = value{Value: def.reduce(m, per[m.Name]), Unit: m.Unit, Trials: per[m.Name]}
	}
	res.untraced["fail_ratio"] = value{Value: float64(res.Failed) / float64(max(res.Attempted, 1)), Unit: "ratio"}
	if def.FixedWork {
		// The same seed must give the same outcomes, trial after trial.
		checks := &trial{}
		first := trials[0]
		for _, t := range trials[1:] {
			checks.sameOutcome(first, t)
		}
		res.absorb(checks)
		res.Digest = fmt.Sprintf("%016x", first.digest)
		res.Exact = map[string]uint64{}
		for _, n := range exactCounts {
			res.Exact[n] = uint64(first.layer[n])
		}
	}
	return res
}

// sameOutcome checks that two trials of a fixed-work workload, run from one
// seed, saw the same hits, misses and victims.
func (t *trial) sameOutcome(a, b *trial) {
	t.check(a.digest == b.digest, "outcome digest %016x differs from %016x for the same seed", b.digest, a.digest)
	for _, n := range exactCounts {
		t.check(uint64(a.layer[n]) == uint64(b.layer[n]), "%s %.0f differs from %.0f for the same seed", n, b.layer[n], a.layer[n])
	}
}

// absorb adds a trial's operation and check counts to the result.
func (r *workloadResult) absorb(t *trial) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	r.Problems = append(r.Problems, t.problems...)
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// traced runs the workload's traced trial and standalone layer replays and
// fills res.PerLayer, the untracedRows summarize left in res included;
// untraced are the trials res was summarized from.
func traced(def *workloadDef, o *options, seconds float64, untraced []*trial, res *workloadResult, files *spanFile) {
	tr := newTracer(def.Name)
	rc := newRunCtx(o, seconds, tr)
	t := def.run(rc)
	files.add(tr)
	out := t.layer
	def.layers(rc, out, t)
	res.absorb(t)

	// A fixed-work workload must not notice being traced.
	checks := &trial{}
	if def.FixedWork {
		checks.sameOutcome(untraced[0], t)
	}

	dur, self := tr.byName()
	if d := dur["rpc"]; len(d) > 0 {
		out["server.remote_us"] = tr.spanMedian(self["rpc"]) / 1e3
		// One request is built per operation; one reply parsed and checked.
		out["bench.loadgen_ns_per_op"] = tr.spanMedian(dur["client.append_request"])/float64(max(t.tripOps, 1)) +
			tr.spanMedian(dur["client.parse_response"]) + tr.spanMedian(dur["client.verify"])
	}
	if d := dur["shardcache.Access"]; len(d) > 0 {
		out["shardcache.access_ns"] = tr.spanMedian(d)
		if solo := out["shardcache.access_solo_ns"]; solo > 0 {
			out["shardcache.sharing_slowdown"] = out["shardcache.access_ns"] / solo
		}
		out["bench.loadgen_ns_per_op"] = tr.spanMedian(self["op"])
	}
	if d := dur["core.Access.hit"]; len(d) > 0 {
		out["core.access_hit_ns"] = tr.spanMedian(d)
	}
	if d := dur["core.Access.miss"]; len(d) > 0 {
		out["core.access_miss_ns"] = tr.spanMedian(d)
	}
	out["trace.spans"] = float64(tr.count())

	if ref := res.untraced["ops_per_s"].Value; ref > 0 {
		out["trace.overhead_frac"] = 1 - median(t.rates)/ref
	}

	out["shardcache.mutex_wait_frac"] = t.res.mutexWaitS / (float64(rc.k) * max(t.wall.Seconds(), 1e-9))
	out["runtime.gc_cycles"] = float64(t.res.gcCycles)
	out["runtime.gc_pause_ms"] = t.res.gcPauseMS
	out["runtime.gc_cpu_frac"] = t.res.gcCPUS / max(t.res.cpuUS/1e6, 1e-9)
	out["runtime.sched_latency_p99_us"] = t.res.schedP99US
	out["bench.calib_ns"] = t.calibNS

	samples, err := parseProfile(t.profile)
	checks.check(err == nil, "cpu profile: %v", err)
	res.absorb(checks)
	for k, v := range cpuBudget(samples) {
		out[k] = v
	}

	res.PerLayer = make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		res.PerLayer[m.Name] = value{Value: out[m.Name], Unit: m.Unit}
	}
	maps.Copy(res.PerLayer, res.untraced)
	res.Samples["spans"] = tr.count()
	for _, s := range samples {
		res.Samples["cpu_samples"] += int(s.Count)
	}
}

// printReport prints every metric of every workload by name and unit.
func printReport(w *bufio.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "\nbench: commit %s, %s, nproc %d, GOMAXPROCS %d, K %d, seed %d, %d trials x %.1f s, calib %.2f ns, degraded %v\n",
		e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.K, e.Seed, e.Trials, e.Seconds, e.CalibNS, e.Degraded)
	for i := range workloads {
		name := workloads[i].Name
		res := rep.Workloads[name]
		if res == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  (%s)  correct=%v attempted=%d failed=%d\n", name, res.Loop, res.Correct, res.Attempted, res.Failed)
		for _, p := range res.Problems {
			fmt.Fprintf(w, "  problem: %s\n", p)
		}
		fmt.Fprintf(w, "  samples:")
		for _, k := range []string{"trials", "slices", "latency_samples", "spans", "cpu_samples"} {
			fmt.Fprintf(w, " %s=%d", k, res.Samples[k])
		}
		fmt.Fprintln(w)
		for _, m := range endToEnd {
			v := res.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-34s %14.6g %-6s (spread %.3f, bound %.2f)\n", m.Name, v.Value, v.Unit, spread(v.Trials), m.Bound)
		}
		for _, m := range perLayer {
			v := res.PerLayer[m.Name].Value
			if tr := res.PerLayer[m.Name].Trials; len(tr) > 1 {
				fmt.Fprintf(w, "  %-34s %14.6g %-6s (spread %.3f, report-only)\n", m.Name, v, m.Unit, spread(tr))
				continue
			}
			if m.Unit == "count" && v >= 1 {
				// Counts are compared digit for digit; do not round them.
				fmt.Fprintf(w, "  %-34s %14.0f %s\n", m.Name, v, m.Unit)
				continue
			}
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	w.Flush()
}
