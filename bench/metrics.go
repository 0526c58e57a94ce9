package main

import "encoding/json"

// The benchmark's metric tables. BENCHMARK.json at the repository root is
// generated from them (-spec; a test compares the bytes), so -compare and
// the driver judge with the same names and bounds.

// metricKind says how a metric's per-trial values become the reported one
// and how -compare reads it.
type metricKind int

const (
	kindPlain metricKind = iota
	// kindTiming is host time spent in the timed section. The trials of a
	// fixed-work workload do bit-identical work, so what differs between
	// them is the machine, and interference only ever adds time: there the
	// reported value is the best trial's, everywhere else the median.
	kindTiming
	// kindQuality is a pure function of the seed on a fixed-work workload:
	// -compare accepts no difference at all there, whatever the bound.
	kindQuality
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool    // true when a larger value is better
	Bound  float64 // end-to-end only: allowed worsening as a share of the old median
	Kind   metricKind
}

// endToEnd lists what a user of the system sees, on every workload, with
// the bound -compare and the driver judge by. Every metric applies to every
// workload and is never 0, because a bound is a share of the previous
// median: miss ratio and occupancy error are therefore reported as their
// complements (hit_ratio, occ_fit).
//
// Throughput, latency and CPU per operation are not here. They were
// specified with a bound of 0.10 and the rule that a timing metric that
// cannot hold its bound between two sets of runs of the same code on the
// build machine is demoted to a report-only row, never given a wider bound.
// None of the four holds 0.10 on every workload there (README.md,
// "Stability": the same binary, minutes apart, reads 10-25% apart), so all
// four are untracedRows. To promote one on a steadier machine, move its line
// back here with Bound 0.10.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25, kindPlain},
	{"heap_mb", "MB", false, 0.10, kindPlain},
	{"hit_ratio", "ratio", true, 0.02, kindQuality},
	{"occ_fit", "ratio", true, 0.02, kindQuality},
	{"aef", "ratio", true, 0.03, kindQuality},
}

// untracedRows are the whole-run quantities that carry no bound: the demoted
// timing metrics, and what is 0 on some workload and so cannot take a
// relative bound. They are reported with the per-layer rows but, like the
// end-to-end metrics, come from the untraced trials.
var untracedRows = []metricDef{
	{"ops_per_s", "1/s", true, 0, kindTiming},
	{"lat_p50_us", "us", false, 0, kindTiming},
	{"lat_p99_us", "us", false, 0, kindTiming},
	{"cpu_us_per_op", "us", false, 0, kindTiming},
	{"allocs_per_op", "count", false, 0, kindPlain},
	{"bytes_per_op", "bytes", false, 0, kindPlain},
	{"miss_ratio", "ratio", false, 0, kindPlain},
	{"occ_err_max", "ratio", false, 0, kindPlain},
	{"fail_ratio", "ratio", false, 0, kindPlain},
}

// exactCounts are the core.* totals of the timed section that, with the
// outcome digest, repeat exactly for a seed on a fixed-work workload.
var exactCounts = []string{
	"core.hits", "core.misses", "core.evictions", "core.forced_evictions", "core.demotions",
}

// cpuBuckets are the CPU-budget shares, in classification priority order
// for a single frame (see classifyFrame). They sum to 1 per traced trial.
var cpuBuckets = []string{
	"cpu.gc_malloc", "cpu.net_syscall", "cpu.lock", "cpu.sched_chan",
	"cpu.server_wire", "cpu.server_admission", "cpu.server_store",
	"cpu.server_batch", "cpu.server_conn", "cpu.shardcache", "cpu.core",
	"cpu.futility", "cpu.ost", "cpu.cachearray", "cpu.hashing", "cpu.alloc",
	"cpu.stats", "cpu.loadgen", "cpu.other",
}

// perLayer lists the report-only metrics of the traced pass. A workload that
// bypasses a layer reports 0 for that layer's rows.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{Name: n, Unit: unit}
		}
		return out
	}
	var m []metricDef
	m = append(m, lower("ns",
		"server.wire.append_request_ns", "server.wire.parse_request_ns",
		"server.wire.append_response_ns", "server.wire.parse_response_ns",
		"server.wire.read_frame_ns")...)
	m = append(m, lower("us",
		"server.remote_us", "server.handler_p50_us", "server.handler_p99_us",
		"server.ladder.ping_us", "server.ladder.get_absent_us",
		"server.ladder.get_hit_us", "server.ladder.set_resident_us",
		"server.ladder.set_evict_us")...)
	m = append(m, lower("count", "server.store_entries")...)
	m = append(m, lower("bytes", "server.store_bytes")...)
	m = append(m, lower("count",
		"server.shed", "server.rejected", "server.stale_serves", "server.deadlined")...)

	m = append(m, lower("ns", "shardcache.access_ns", "shardcache.access_solo_ns")...)
	m = append(m, lower("ratio", "shardcache.sharing_slowdown")...)
	m = append(m, lower("ns", "shardcache.batch_access_ns_per_req")...)
	m = append(m, lower("us",
		"shardcache.rebalance_us", "shardcache.set_targets_us", "shardcache.snapshot_us")...)
	m = append(m, lower("ratio", "shardcache.mutex_wait_frac")...)
	m = append(m, lower("count", "shardcache.rebalances", "shardcache.target_installs")...)

	m = append(m, lower("ns", "core.access_hit_ns", "core.access_miss_ns")...)
	for _, n := range exactCounts {
		m = append(m, metricDef{Name: n, Unit: "count", Higher: n == "core.hits"})
	}
	m = append(m, lower("us", "core.snapshot_us")...)

	m = append(m, lower("ns",
		"futility.coarse.on_hit_ns", "futility.coarse.futility_raw_ns",
		"futility.exact.on_hit_ns", "futility.exact.futility_raw_ns",
		"ost.insert_delete_ns", "ost.rank_ns",
		"cachearray.setassoc.lookup_ns", "cachearray.setassoc.candidates_ns",
		"cachearray.zcache.candidates_ns", "cachearray.zcache.install_ns",
		"hashing.h3_ns", "alloc.observe_ns")...)
	m = append(m, lower("us", "alloc.epoch_us")...)
	m = append(m, lower("count", "alloc.epochs")...)
	m = append(m, lower("ratio", "alloc.sampled_frac")...)

	m = append(m, lower("count", "runtime.gc_cycles")...)
	m = append(m, lower("ms", "runtime.gc_pause_ms")...)
	m = append(m, lower("ratio", "runtime.gc_cpu_frac")...)
	m = append(m, lower("us", "runtime.sched_latency_p99_us")...)
	m = append(m, lower("ns", "bench.calib_ns", "bench.loadgen_ns_per_op")...)
	m = append(m, lower("ratio", "trace.overhead_frac")...)
	m = append(m, lower("count", "trace.spans")...)
	m = append(m, lower("ratio", cpuBuckets...)...)

	return append(m, untracedRows...)
}

// benchmarkSpec renders BENCHMARK.json from the tables above (-spec), so the
// file the driver reads is generated, not hand-kept.
func benchmarkSpec() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	render := func(defs []metricDef, bounded bool) []metricJSON {
		out := make([]metricJSON, len(defs))
		for i, m := range defs {
			out[i] = metricJSON{Name: m.Name, Unit: m.Unit, Better: "lower"}
			if m.Higher {
				out[i].Better = "higher"
			}
			if bounded {
				out[i].Bound = &defs[i].Bound
			}
		}
		return out
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
		EndToEnd:   render(endToEnd, true),
		PerLayer:   render(perLayer, false),
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, workloadJSON{w.Name, w.Why})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	return append(b, '\n'), err
}

// value is one reported number; Trials holds the per-trial values it was
// reduced from (end-to-end metrics and untracedRows only), which is what
// -compare takes its quartiles from.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Trials []float64 `json:"trials,omitempty"`
}

// envStamp records where and how a result was taken.
type envStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	K          int     `json:"k"`
	Seed       uint64  `json:"seed"`
	Trials     int     `json:"trials"`
	Seconds    float64 `json:"seconds_per_trial"`
	Smoke      bool    `json:"smoke,omitempty"`
	CalibNS    float64 `json:"bench.calib_ns"`
	// Degraded is set when nproc < 2: the parallel workloads then measure
	// time-slicing on one core, not scaling, and must not be read as such.
	Degraded bool `json:"degraded"`
}

// workloadResult is one workload's section of the JSON report.
type workloadResult struct {
	Why       string           `json:"why"`
	Loop      string           `json:"loop"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	Samples   map[string]int   `json:"samples"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// Digest and Exact are set on fixed-work workloads only: the outcome
	// digest and the exactCounts every trial of the run agreed on. For one
	// seed they may not differ between two reports.
	Digest string            `json:"digest,omitempty"`
	Exact  map[string]uint64 `json:"exact,omitempty"`

	// untraced holds the untracedRows until the traced pass files them
	// under PerLayer.
	untraced map[string]value
}

// report is the full JSON output of one benchmark run (-out).
type report struct {
	Env       envStamp                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}
