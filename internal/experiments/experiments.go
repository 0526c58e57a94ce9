// Package experiments reproduces every figure and table of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Each FigN
// function runs at a configurable Scale and returns a typed result that can
// print itself in paper-style rows; cmd/fstables drives them all.
package experiments

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"sync"

	"fscache/internal/analytic"
	"fscache/internal/baselines"
	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/stats"
	"fscache/internal/trace"
	"fscache/internal/workload"
	"fscache/internal/xrand"
)

// Scale sets experiment fidelity. Full reproduces the paper's
// configuration (8 MB L2, 512 KB partitions); Quick shrinks caches and
// traces ~8× for tests and benchmarks while preserving every qualitative
// shape.
type Scale struct {
	// Name labels reports.
	Name string
	// L2Lines is the shared L2 size in 64 B lines (Table II: 8 MB → 131072).
	L2Lines int
	// PartLines is the per-partition size for Fig. 2 (512 KB → 8192).
	PartLines int
	// SubjectLines is the QoS guarantee for Fig. 7 (256 KB → 4096).
	SubjectLines int
	// TraceLen is the per-thread L2 access count for timing experiments.
	TraceLen int
	// AnalyticLines is the random-candidates cache for Fig. 4/5 (2 MB →
	// 32768).
	AnalyticLines int
	// Insertions is the insertion count driven through the analytical
	// cache experiments (Fig. 4/5).
	Insertions int
	// L1Lines sizes each private L1 filter (32 KB → 512 lines at full
	// scale).
	L1Lines int
	// WorkloadShrink divides workload region sizes so working-set-to-cache
	// ratios survive cache downscaling (1 at full scale).
	WorkloadShrink int
	// Seed roots all pseudo-randomness.
	Seed uint64
}

// Full returns the paper-fidelity scale.
func Full() Scale {
	return Scale{
		Name:           "full",
		L2Lines:        131072,
		PartLines:      8192,
		SubjectLines:   4096,
		TraceLen:       120000,
		AnalyticLines:  32768,
		Insertions:     1500000,
		L1Lines:        512,
		WorkloadShrink: 1,
		Seed:           20140621, // MICRO-47 submission-ish vintage
	}
}

// Quick returns a reduced scale for tests and benchmarks.
func Quick() Scale {
	return Scale{
		Name:           "quick",
		L2Lines:        16384,
		PartLines:      2048,
		SubjectLines:   512,
		TraceLen:       12000,
		AnalyticLines:  8192,
		Insertions:     150000,
		L1Lines:        256,
		WorkloadShrink: 6,
		Seed:           20140621,
	}
}

// SchemeName identifies a partitioning scheme configuration.
type SchemeName string

// Scheme configurations used across experiments.
const (
	// SchemeFS is feedback-based Futility Scaling (§V).
	SchemeFS SchemeName = "fs"
	// SchemePF is Partitioning-First (Algorithm 1).
	SchemePF SchemeName = "pf"
	// SchemePriSM is probabilistic shared-cache management.
	SchemePriSM SchemeName = "prism"
	// SchemeVantage is Vantage with the paper's parameters.
	SchemeVantage SchemeName = "vantage"
	// SchemeCQVP is quota-violation prohibition.
	SchemeCQVP SchemeName = "cqvp"
	// SchemeUnmanaged is the no-partitioning baseline.
	SchemeUnmanaged SchemeName = "unmanaged"
	// SchemeFullAssoc is PF on a fully-associative array (ideal).
	SchemeFullAssoc SchemeName = "fullassoc"
	// SchemeWayPart is placement-based way-partitioning (§II-B).
	SchemeWayPart SchemeName = "waypart"
)

// AllQoSSchemes lists the schemes compared in Fig. 7, in the paper's order.
func AllQoSSchemes() []SchemeName {
	return []SchemeName{SchemePF, SchemePriSM, SchemeVantage, SchemeFS, SchemeFullAssoc}
}

// ArrayKind identifies a cache-array organization for CacheSpec.
type ArrayKind string

// Array kinds.
const (
	Array16Way     ArrayKind = "setassoc-16"
	ArrayRandom16  ArrayKind = "random-16"
	ArrayFullyAssc ArrayKind = "fullyassoc"
	ArrayDirect    ArrayKind = "directmapped"
	ArrayZ4        ArrayKind = "zcache-z4/52"
	ArraySkew8     ArrayKind = "skew-8"
)

// CacheSpec assembles a partitioned L2 for an experiment.
type CacheSpec struct {
	Lines int
	Array ArrayKind
	// Ways overrides the associativity of Array16Way (default 16; scenario
	// specs choose their own associativity).
	Ways int
	// RandomR overrides the candidate count of ArrayRandom16 (default 16).
	RandomR int
	Rank    futility.Kind
	Scheme  SchemeName
	Parts   int // application partitions
	Seed    uint64
	// Feedback overrides SchemeFS's controller for sensitivity studies;
	// zero fields keep the defaults.
	Feedback core.FSFeedbackConfig
}

// Built is the assembled cache plus scheme handles experiments may need.
type Built struct {
	Cache *core.Cache
	// FSFixed is non-nil when the scheme is fs-fixed (set via WithAlphas).
	FSFixed *core.FSFixed
	// FSFeedback is non-nil for SchemeFS.
	FSFeedback *core.FSFeedback
	// PriSM is non-nil for SchemePriSM.
	PriSM *baselines.PriSM
	// Vantage is non-nil for SchemeVantage.
	Vantage *baselines.Vantage
	// Coarse is the ranker downcast to its coarse-timestamp implementation
	// when the spec asked for CoarseLRU; fault-injection experiments use it
	// to reach the timestamp tags.
	Coarse *futility.CoarseTS
}

// SetTargets installs targets for the application partitions, padding
// pseudo-partitions with zero.
func (b *Built) SetTargets(appTargets []int) {
	t := make([]int, b.Cache.Parts())
	copy(t, appTargets)
	b.Cache.SetTargets(t)
}

// Check returns what Build panics on: an unknown scheme or array, or a line
// count the array cannot take. Commands report it as a usage error.
func (spec CacheSpec) Check() error {
	switch spec.Scheme {
	case SchemeFS, SchemePF, SchemePriSM, SchemeVantage, SchemeCQVP, SchemeUnmanaged, SchemeFullAssoc, SchemeWayPart, "fs-fixed":
	default:
		return fmt.Errorf("unknown scheme %q", spec.Scheme)
	}
	if spec.Scheme == SchemeFullAssoc {
		spec.Array = ArrayFullyAssc
	}
	ways := spec.ways()
	switch {
	case ways == 0:
		return fmt.Errorf("unknown array %q", spec.Array)
	case spec.Lines < ways:
		return fmt.Errorf("array %s needs at least %d lines, not %d", spec.Array, ways, spec.Lines)
	case spec.Lines&(spec.Lines-1) != 0 && spec.Array != ArrayRandom16 && spec.Array != ArrayFullyAssc:
		return fmt.Errorf("array %s needs a power-of-two line count, not %d", spec.Array, spec.Lines)
	case spec.Scheme == SchemeWayPart && (spec.Array != Array16Way || ways != 16):
		return fmt.Errorf("waypart requires the 16-way set-associative array")
	}
	return nil
}

// ways returns the ways of spec's array (random-16: its candidates), the
// fewest lines it takes, or 0 for an unknown array. All but random-16 and
// fullyassoc index power-of-two sets.
func (spec CacheSpec) ways() int {
	switch spec.Array {
	case Array16Way:
		return cmp.Or(spec.Ways, 16)
	case ArrayRandom16:
		return cmp.Or(spec.RandomR, 16)
	case ArrayFullyAssc, ArrayDirect:
		return 1
	case ArrayZ4:
		return 4
	case ArraySkew8:
		return 8
	}
	return 0
}

// Build assembles the cache. It panics on what Check reports.
func Build(spec CacheSpec) *Built {
	if err := spec.Check(); err != nil {
		panicf("%v", err)
	}
	parts := spec.Parts
	// total includes scheme-private pseudo-partitions (Vantage's unmanaged
	// region).
	b, total := &Built{}, parts

	// The FullAssoc ideal scheme forces a fully associative array and an
	// exact ranker (coarse timestamps have no worst-line tracking).
	if spec.Scheme == SchemeFullAssoc {
		spec.Array = ArrayFullyAssc
	}
	rank := spec.Rank
	if spec.Array == ArrayFullyAssc && rank == futility.CoarseLRU {
		rank = futility.LRU
	}

	var scheme core.Scheme
	switch spec.Scheme {
	case SchemeFS:
		fs := core.NewFSFeedback(parts, spec.Feedback)
		b.FSFeedback = fs
		scheme = fs
	case SchemePF, SchemeFullAssoc:
		scheme = baselines.NewPF(parts)
	case SchemePriSM:
		p := baselines.NewPriSM(parts, baselines.DefaultPriSMWindow, xrand.Mix64(spec.Seed^0xbeef))
		b.PriSM = p
		scheme = p
	case SchemeVantage:
		total = parts + 1
		v := baselines.NewVantage(total, parts, baselines.DefaultVantageConfig())
		b.Vantage = v
		scheme = v
	case SchemeCQVP:
		scheme = baselines.NewCQVP(parts)
	case SchemeUnmanaged:
		scheme = baselines.NewUnmanaged()
	case SchemeWayPart:
		scheme = baselines.NewWayPart(parts, 16)
	case "fs-fixed":
		fs := core.NewFSFixed(parts)
		b.FSFixed = fs
		scheme = fs
	}

	var arr cachearray.Array
	aseed := xrand.Mix64(spec.Seed ^ 0xa77a)
	switch spec.Array {
	case Array16Way:
		// H3 indexing rather than plain XOR folding: our synthetic address
		// spaces are perfectly aligned (component bases in high bits), so
		// XOR folds resonate at particular set counts and manufacture
		// conflicts real page-randomized SPEC addresses would never see.
		// H3 restores the "good hash indexing" premise of §III-B.
		arr = cachearray.NewSetAssoc(spec.Lines, spec.ways(), cachearray.IndexH3, aseed)
	case ArrayRandom16:
		arr = cachearray.NewRandom(spec.Lines, spec.ways(), aseed)
	case ArrayFullyAssc:
		arr = cachearray.NewFullyAssoc(spec.Lines)
	case ArrayDirect:
		arr = cachearray.NewSetAssoc(spec.Lines, 1, cachearray.IndexH3, aseed)
	case ArrayZ4:
		arr = cachearray.NewZCache(spec.Lines, 4, 3, aseed)
	case ArraySkew8:
		arr = cachearray.NewZCache(spec.Lines, 8, 1, aseed) // skew-associative
	}

	ranker := futility.New(rank, spec.Lines, total, xrand.Mix64(spec.Seed^0x7a17))
	if c, ok := ranker.(*futility.CoarseTS); ok {
		b.Coarse = c
	}
	var ref futility.Ranker
	if rk := futility.Reference(rank); rk != rank {
		ref = futility.New(rk, spec.Lines, total, xrand.Mix64(spec.Seed^0x4ef))
	}

	b.Cache = core.New(core.Config{
		Array:     arr,
		Ranker:    ranker,
		Reference: ref,
		Scheme:    scheme,
		Parts:     total,
	})
	return b
}

// insertionCell is one run of the paper's insertion-rate control (§IV-C):
// the probability that the next insertion belongs to partition i is
// insert[i], realized by feeding gens[i] until it produces exactly one miss.
// Figs. 4/5, the §VIII sweeps, ablations A1–A4 and resize are all such
// cells.
type insertionCell struct {
	spec    CacheSpec
	targets []int
	insert  []float64
	gens    []trace.Generator
	// seed drives the draw of each insertion's partition.
	seed uint64
	// split is the target split as fractions of the cache. An fs-fixed
	// cell's α is Eq. 1 solved over split and insert; solving it from
	// targets instead would round the split to whole lines.
	split []float64
}

// converge builds the cache, installs Eq. 1's α (fs-fixed only; nil
// otherwise) and the targets, fills to the targets and then settles one
// cache's worth of insertions. Filling by steering insertions into whichever
// partition is below target starts measurement from the stationary split
// rather than an insertion-proportional fill that would take many multiples
// of the cache size to relax.
func (c insertionCell) converge() (*Built, *insertionDriver, []float64) {
	if len(c.insert) != len(c.gens) {
		panic("experiments: insertion probabilities and generators mismatch")
	}
	b := Build(c.spec)
	var alphas []float64
	if b.FSFixed != nil {
		// R = 16: every fs-fixed cell runs on the default random-candidates
		// array.
		a, err := analytic.ScalingFactors(c.insert, c.split, 16)
		if err != nil {
			panic("experiments: scaling factors: " + err.Error())
		}
		alphas = a
		b.FSFixed.SetAlphas(a)
	}
	b.SetTargets(c.targets)

	d := &insertionDriver{rng: xrand.New(c.seed), gens: c.gens, cache: b.Cache}
	acc := 0.0
	for _, p := range c.insert {
		acc += p
		d.cum = append(d.cum, acc)
	}
	lines := 0
	for _, t := range c.targets {
		lines += t
	}
	for {
		total, under := 0, -1
		for p, t := range c.targets {
			total += b.Cache.Sizes()[p]
			if under < 0 && b.Cache.Sizes()[p] < t {
				under = p
			}
		}
		if total >= lines {
			break
		}
		d.insertInto(under)
	}
	for i := 0; i < c.spec.Lines; i++ {
		d.insert()
	}
	return b, d, alphas
}

// insertionDriver draws each insertion's partition for a converged cell.
type insertionDriver struct {
	rng   *xrand.Rand
	cum   []float64
	gens  []trace.Generator
	cache *core.Cache
}

// measure resets the cache's statistics, drives n insertions and returns
// partition 0's deviation from its target, sampled after each one (Fig. 5).
func (d *insertionDriver) measure(n int) *stats.IntDist {
	d.cache.ResetStats()
	dev := stats.NewIntDist()
	for i := 0; i < n; i++ {
		d.insert()
		dev.Add(d.cache.Sizes()[0] - d.cache.Targets()[0])
	}
	return dev
}

// insert feeds one insertion (miss) into a partition drawn from the
// configured distribution.
func (d *insertionDriver) insert() {
	u := d.rng.Float64()
	p := 0
	for p < len(d.cum)-1 && u >= d.cum[p] {
		p++
	}
	d.insertInto(p)
}

// insertInto feeds the chosen thread's trace until one miss occurs.
func (d *insertionDriver) insertInto(p int) {
	for n := 0; ; n++ {
		if n >= 100000 {
			panic("experiments: generator produced no miss; working set fits the partition")
		}
		a := d.gens[p].Next()
		if !d.cache.Access(a.Addr, p, trace.NoNextUse).Hit {
			return
		}
	}
}

// splitTargets divides lines between two partitions, s0 of it to the first.
func splitTargets(lines int, s0 float64) []int {
	t0 := int(s0 * float64(lines))
	return []int{t0, lines - t0}
}

// mcfPair returns two threads of mcf, the paper's flagship
// associativity-sensitive benchmark, seeded from tag+"-t0" and tag+"-t1".
func mcfPair(scale Scale, tag string) []trace.Generator {
	return []trace.Generator{
		profileGenerator(scale, "mcf", seedStream(scale.Seed, tag+"-t0"), 0),
		profileGenerator(scale, "mcf", seedStream(scale.Seed, tag+"-t1"), 1),
	}
}

// freshLineGenerator yields an always-missing stream (disjoint fresh lines).
type freshLineGenerator struct {
	next uint64
}

func newFreshLineGenerator(space int) *freshLineGenerator {
	return &freshLineGenerator{next: uint64(space+1) << 40}
}

// Next implements trace.Generator.
func (g *freshLineGenerator) Next() trace.Access {
	g.next++
	return trace.Access{Addr: g.next}
}

// profileGenerator returns a benchmark generator at the scale's workload
// shrink factor.
func profileGenerator(scale Scale, bench string, seed uint64, thread int) trace.Generator {
	p, err := workload.ByName(bench)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return p.Shrunk(scale.WorkloadShrink).NewGenerator(seed, thread)
}

func fprintf(w io.Writer, format string, args ...interface{}) {
	if _, err := fmt.Fprintf(w, format, args...); err != nil {
		panic("experiments: write failed: " + err.Error())
	}
}

// parallelWorkers, when positive, overrides the worker count used by
// parallelFor. The determinism regression test pins it to 1 and compares
// against the concurrent run; production code leaves it at 0.
var parallelWorkers = 0

// parallelFor runs fn(0..n-1) on up to GOMAXPROCS workers. Experiment cells
// are independent and individually seeded, so results are identical to the
// sequential order regardless of scheduling.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if parallelWorkers > 0 {
		workers = parallelWorkers
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//fslint:ignore determinism cells are independent and individually seeded; results are written to disjoint indices, identical to sequential order
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// panicf formats a cold-path panic message out of line, keeping fmt calls
// (and their escaping arguments) out of the callers' bodies — fslint's
// allocfree rejects an inline panic(fmt.Sprintf(...)) on an //fs:allocfree path.
//
//go:noinline
func panicf(format string, args ...any) {
	panic("experiments: " + fmt.Sprintf(format, args...))
}
