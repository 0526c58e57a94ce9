package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"fscache/internal/ost"
	"fscache/internal/xrand"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	gens := map[string]func(seed uint64) uint64{
		"serve":      func(s uint64) uint64 { return serveOpsHash(genServeOps(s, 1, 5000, 2, 4096, 0.9, 0.2)) },
		"engine":     func(s uint64) uint64 { return streamHash(genEngineStream(s, 1, 5000, serveLines)) },
		"sim-coarse": func(s uint64) uint64 { return streamHash(genSimCoarse(s, 5000)) },
		"sim-z52":    func(s uint64) uint64 { return streamHash(genSimZ52(s, 1000, 5000, 16384)) },
	}
	for name, gen := range gens {
		if a, b := gen(7), gen(7); a != b {
			t.Errorf("%s: same seed gave %x and %x", name, a, b)
		}
		if a, b := gen(7), gen(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %x", name, a)
		}
	}
	// Connections and workers of one run must not replay each other.
	if streamHash(genEngineStream(7, 0, 5000, serveLines)) == streamHash(genEngineStream(7, 1, 5000, serveLines)) {
		t.Error("engine workers 0 and 1 got the same stream")
	}
}

func TestValuesDescribeThemselves(t *testing.T) {
	val := append(make([]byte, valHeader), genValueBody(3, 48)...)
	stampValue(val, 1, 77, 5)
	if !checkValue(val, 1, 77, len(val)) {
		t.Fatal("intact value rejected")
	}
	if checkValue(val, 0, 77, len(val)) || checkValue(val, 1, 78, len(val)) || checkValue(val, 1, 77, len(val)+1) {
		t.Error("value accepted for the wrong tenant, key or length")
	}
	val[20] ^= 1
	if checkValue(val, 1, 77, len(val)) {
		t.Error("corrupt body accepted")
	}
}

func TestEstimatorsAgainstSortedReference(t *testing.T) {
	r := xrand.New(11)
	for n := 1; n <= 200; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(50)) // ties on purpose
		}
		s := sortedCopy(xs)
		for _, p := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
			got := percentileSorted(s, p)
			// Reference: the smallest value with at least p·n values <= it.
			want := math.Inf(1)
			for _, x := range xs {
				atOrBelow := 0
				for _, y := range xs {
					if y <= x {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= p*float64(n) && x < want {
					want = x
				}
			}
			if math.Abs(got-want) > 0 {
				t.Fatalf("n=%d p=%v: got %v want %v", n, p, got, want)
			}
		}
		wantMed := s[n/2]
		if n%2 == 0 {
			wantMed = (s[n/2-1] + s[n/2]) / 2
		}
		if got := median(xs); math.Abs(got-wantMed) > 1e-12 {
			t.Fatalf("n=%d: median %v want %v", n, got, wantMed)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles of 1..10: %v %v", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q3 = quartiles([]float64{3, 1, 2})
	if math.Abs(q1-1) > 1e-12 || math.Abs(q3-3) > 1e-12 {
		t.Errorf("quartiles of 1..3: %v %v", q1, q3)
	}
	if s := spread([]float64{90, 100, 110}); math.Abs(s-0.2) > 1e-12 {
		t.Errorf("spread %v want 0.2", s)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: 10..50 counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "b1", Start: 25, End: 35, Parent: 2}, // a grandchild only reduces b
		{Name: "other", Start: 200, End: 260, Parent: -1},
	}
	want := []int64{50, 20, 20, 30, 10, 60}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times %v want %v", got, want)
	}
}

func TestTracerWritesOneObjectPerSpan(t *testing.T) {
	tr := newTracer("w")
	a, b := tr.buf(), tr.buf()
	root := a.begin("rpc", -1, 1)
	a.end(a.begin("child", root, 1))
	a.end(root)
	b.end(b.begin("rpc", -1, 2))
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f := &spanFile{path: path}
	f.add(tr)
	if err := f.flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines for 3 spans", len(lines))
	}
	var last struct{ ID, Parent int }
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil || last.ID != 2 || last.Parent != -1 {
		t.Errorf("third span %+v (%v): ids must be unique across buffers", last, err)
	}
}

func TestCPUBudgetSharesSumToOne(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	tree := ost.New(1)
	var junk [][]byte
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := range 2000 {
			k := ost.Key{Primary: uint64(i), Tie: 1}
			tree.Insert(k, 0)
			tree.Delete(k)
		}
		junk = append(junk[:0], make([]byte, 1<<16))
	}
	pprof.StopCPUProfile()
	_ = junk

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("the profiler delivered no samples")
	}
	shares := cpuBudget(samples)
	if len(shares) != len(cpuBuckets) {
		t.Errorf("%d buckets, want %d", len(shares), len(cpuBuckets))
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	if shares["cpu.ost"] < 0.2 {
		t.Errorf("treap loop got cpu.ost=%v; shares %v", shares["cpu.ost"], shares)
	}
	if empty := cpuBudget(nil); math.Abs(empty["cpu.other"]-1) > 0 {
		t.Errorf("empty profile: %v", empty)
	}
}

func TestClassifyFrame(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"fscache/internal/server.AppendRequest", "/x/internal/server/wire.go", "cpu.server_wire"},
		{"fscache/internal/server.(*conn).handle", "/x/internal/server/server.go", "cpu.server_conn"},
		{"fscache/internal/server.(*store).Get", "/x/internal/server/store.go", "cpu.server_store"},
		{"fscache/internal/core.(*Cache).Access", "/x/internal/core/cache.go", "cpu.core"},
		{"fscache/internal/xrand.Mix64", "", ""},
		{"main.(*client).roundTrip", "", "cpu.loadgen"},
		{"runtime.mallocgc", "", "cpu.gc_malloc"},
		{"runtime.memmove", "", ""},
		{"syscall.Syscall", "", "cpu.net_syscall"},
		{"sync.(*Mutex).lockSlow", "", "cpu.lock"},
		{"runtime.findRunnable", "", "cpu.sched_chan"},
	} {
		if got := classifyFrame(frame{Func: c.fn, File: c.file}); got != c.want {
			t.Errorf("%s: %q want %q", c.fn, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Bound: 0.10}
	higher := metricDef{Name: "rate", Higher: true, Bound: 0.10}
	val := func(xs ...float64) value { return value{Value: median(xs), Trials: xs} }
	for _, c := range []struct {
		m        metricDef
		old, cur value
		want     verdict
	}{
		{lower, val(100, 101, 102), val(103, 104, 105), vWithin},
		{lower, val(100, 101, 102), val(120, 121, 122), vWorse},
		{lower, val(100, 101, 102), val(80, 81, 82), vBetter},
		{higher, val(100, 101, 102), val(80, 81, 82), vWorse},
		{higher, val(100, 101, 102), val(120, 121, 122), vBetter},
		{lower, val(80, 100, 130), val(90, 100, 140), vUnresolved},
		{lower, val(80, 100, 130), val(40, 50, 70), vBetter}, // noisy, but every new run wins
		// The reported value is judged, not the trials' median: a fixed-work
		// workload reports its best trial.
		{lower, value{Value: 100, Trials: []float64{100, 101, 102}}, value{Value: 120, Trials: []float64{100, 101, 102}}, vWorse},
	} {
		if got := judge(c.m, c.old, c.cur); got != c.want {
			t.Errorf("%s %v → %v: %s want %s", c.m.Name, c.old, c.cur, got, c.want)
		}
	}
}

func TestFixedWorkReportsItsBestTrial(t *testing.T) {
	sim, serve := findWorkload("sim-fs-coarse-32p"), findWorkload("serve-get-hot")
	rate := metricDef{Name: "ops_per_s", Higher: true, Kind: kindTiming}
	lat := metricDef{Name: "lat_p50_us", Kind: kindTiming}
	setup := metricDef{Name: "setup_s"}
	xs := []float64{3, 1, 2}
	for _, c := range []struct {
		def  *workloadDef
		m    metricDef
		want float64
	}{
		{sim, rate, 3}, {sim, lat, 1}, {sim, setup, 2}, {serve, rate, 2}, {serve, lat, 2},
	} {
		if got := c.def.reduce(c.m, xs); math.Abs(got-c.want) > 0 {
			t.Errorf("%s %s: %v want %v", c.def.Name, c.m.Name, got, c.want)
		}
	}
}

// TestCompareHoldsFixedWorkToItsSeed: for one seed a simulation's quality
// metrics, counts and digest may not move at all, however small the change.
func TestCompareHoldsFixedWorkToItsSeed(t *testing.T) {
	mk := func(seed uint64, hit float64, misses uint64, digest string) *report {
		res := &workloadResult{
			EndToEnd: map[string]value{"hit_ratio": {Value: hit, Trials: []float64{hit, hit, hit}}},
			Exact:    map[string]uint64{"core.misses": misses},
			Digest:   digest,
		}
		return &report{Env: envStamp{Seed: seed}, Workloads: map[string]*workloadResult{
			"sim-fs-exact-z52": res, "serve-set-churn": res,
		}}
	}
	base := mk(1, 0.8, 500, "aa")
	for _, c := range []struct {
		name    string
		cur     *report
		changed int
	}{
		{"identical", mk(1, 0.8, 500, "aa"), 0},
		{"hit ratio off by far less than the bound", mk(1, 0.8000001, 500, "aa"), 1},
		{"one more miss", mk(1, 0.8, 501, "aa"), 1},
		{"digest", mk(1, 0.8, 500, "ab"), 1},
		{"another seed is other work", mk(2, 0.7, 900, "cc"), 0},
	} {
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		if got := printComparison(w, base, c.cur); got != c.changed {
			t.Errorf("%s: %d changed rows, want %d\n%s", c.name, got, c.changed, out.String())
		}
	}
}

// TestBenchmarkJSONIsGenerated keeps BENCHMARK.json, which the driver reads,
// the output of -spec, and inside the limits the driver's contract sets.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := benchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, spec) {
		t.Error("BENCHMARK.json is not what -spec prints; regenerate it")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs every workload with every check on, untraced and traced,
// and the result line of BENCHMARK.json mode in both trace settings.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	spans, out := filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "report.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-trace-out", spans, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		res := rep.Workloads[workloads[i].Name]
		if res == nil || !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %+v", workloads[i].Name, res)
			continue
		}
		if len(res.EndToEnd) != len(endToEnd) || len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics", workloads[i].Name, len(res.EndToEnd), len(res.PerLayer))
		}
		cpu := 0.0
		for _, b := range cpuBuckets {
			cpu += res.PerLayer[b].Value
		}
		if math.Abs(cpu-1) > 1e-9 {
			t.Errorf("%s: cpu.* shares sum to %v", workloads[i].Name, cpu)
		}
	}
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
	var table bytes.Buffer
	if code := run([]string{"-compare", out, out}, &table, &stderr); code != 0 || !strings.Contains(table.String(), "0 worse") {
		t.Errorf("-compare of a report with itself exited %d:\n%s", code, table.String())
	}

	for trace, want := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		stdout.Reset()
		args := []string{"--workload", "sim-fs-exact-z52", "--seed", "5", "--seconds", "1", "--trace", trace, "-smoke"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d: %s", args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool
			Attempted *uint64
			Failed    *uint64
			Metrics   map[string]value
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted == 0 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %s: %s", trace, lines[len(lines)-1])
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(line.Metrics), len(want))
		}
		for _, m := range want {
			if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s: %+v", trace, m.Name, v)
			}
		}
	}
}

// streamHash folds a stream into one FNV-1a style word.
func streamHash(s []access) uint64 {
	h := uint64(14695981039346656037)
	for _, a := range s {
		h = (h ^ a.Addr) * 1099511628211
		h = (h ^ uint64(a.Part)) * 1099511628211
	}
	return h
}

// serveOpsHash is streamHash for a server script.
func serveOpsHash(ops []serveOp) uint64 {
	h := uint64(14695981039346656037)
	for _, o := range ops {
		w := uint64(o.Key) | uint64(o.Tenant)<<32
		if o.Set {
			w |= 1 << 40
		}
		h = (h ^ w) * 1099511628211
	}
	return h
}
