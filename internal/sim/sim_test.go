package sim

import (
	"math"
	"testing"
	"testing/quick"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/workload"
	"fscache/internal/xrand"
)

func TestL1Basic(t *testing.T) {
	l1 := NewL1(16) // 4 sets × 4 ways
	if l1.Access(0) {
		t.Fatal("cold access hit")
	}
	if !l1.Access(0) {
		t.Fatal("second access missed")
	}
	// Fill set 0 (addresses ≡ 0 mod 4): 0, 4, 8, 12 occupy its four ways;
	// touching 0 again leaves 4 the LRU way, so 16 evicts it.
	l1.Access(4)
	l1.Access(8)
	l1.Access(12)
	l1.Access(0)
	l1.Access(16) // evicts 4
	if !l1.Access(0) {
		t.Fatal("0 was evicted, expected 4 to go")
	}
	if l1.Access(4) {
		t.Fatal("4 still resident")
	}
}

func TestL1LRUOrder(t *testing.T) {
	l1 := NewL1(16) // 4 sets × 4 ways
	// Same set: stride 4.
	for _, a := range []uint64{0, 4, 8, 12} {
		l1.Access(a)
	}
	l1.Access(0) // refresh 0; LRU is now 4
	l1.Access(16)
	// Check survivors first (hits do not evict), then the LRU victim.
	if !l1.Access(0) || !l1.Access(8) || !l1.Access(12) || !l1.Access(16) {
		t.Fatal("non-LRU line was evicted")
	}
	if l1.Access(4) {
		t.Fatal("LRU line 4 survived")
	}
}

func TestL1Validation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewL1(0) },
		func() { NewL1(7) },
		func() { NewL1(2) }, // fewer lines than ways
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

// Property: L1 is an inclusion filter — immediately repeated addresses
// always hit, and the number of misses never exceeds the reference count.
func TestQuickL1Filter(t *testing.T) {
	f := func(raw []uint16) bool {
		l1 := NewL1(64)
		misses := 0
		for _, a := range raw {
			if !l1.Access(uint64(a)) {
				misses++
			}
			if !l1.Access(uint64(a)) {
				return false // immediate re-access must hit
			}
		}
		return misses <= len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildL2TraceFiltersHotLines(t *testing.T) {
	prof, err := workload.ByName("gromacs")
	if err != nil {
		t.Fatal(err)
	}
	gen := prof.NewGenerator(1, 0)
	l1 := NewL1(512)
	tr := BuildL2Trace(gen, l1, 20000)
	if tr.Len() != 20000 {
		t.Fatalf("trace length %d", tr.Len())
	}
	// The L1 absorbs a meaningful share of references: the L2 trace must
	// take more than one reference per access on average, i.e. gaps grow.
	if tr.Instructions() <= 20000 {
		t.Fatal("gaps did not aggregate")
	}
	// All addresses are line addresses within the thread's space.
	for i := range tr.Accesses {
		if tr.Accesses[i].Addr == 0 {
			t.Fatal("zero address leaked")
		}
	}
}

// countingGen counts the references drawn from the generator it wraps.
type countingGen struct {
	trace.Generator
	refs int
}

func (g *countingGen) Next() trace.Access {
	g.refs++
	return g.Generator.Next()
}

func TestBuildL2TraceBoundedByMaxRefs(t *testing.T) {
	// A generator the L1 fully absorbs: one address forever.
	gen := &countingGen{Generator: trace.NewSliceGenerator([]trace.Access{{Addr: 42, Gap: 1}})}
	tr := BuildL2Trace(gen, NewL1(512), 100)
	if tr.Len() != 1 { // only the compulsory miss
		t.Fatalf("trace length %d, want 1", tr.Len())
	}
	if gen.refs != 1000*100 {
		t.Fatalf("drew %d references, want the 1000×n bound %d", gen.refs, 1000*100)
	}
}

func TestBuildL2TraceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	BuildL2Trace(trace.NewSliceGenerator([]trace.Access{{}}), NewL1(8), 0)
}

func buildCache(parts, lines int) *core.Cache {
	fs := core.NewFSFeedback(parts, core.FSFeedbackConfig{})
	c := core.New(core.Config{
		Array:  cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, 1),
		Ranker: futility.NewCoarseTS(lines, parts),
		Scheme: fs,
		Parts:  parts,
	})
	targets := make([]int, parts)
	for i := range targets {
		targets[i] = lines / parts
	}
	c.SetTargets(targets)
	return c
}

func TestMulticoreRunCompletes(t *testing.T) {
	const threads = 4
	traces := make([]*trace.Trace, threads)
	rng := xrand.New(9)
	for i := range traces {
		tr := &trace.Trace{Accesses: make([]trace.Access, 5000)}
		for j := range tr.Accesses {
			tr.Accesses[j] = trace.Access{
				Addr: uint64(i)<<40 | rng.Uint64()%4096,
				Gap:  rng.Uint32() % 20,
			}
		}
		traces[i] = tr
	}
	m := NewMulticore(buildCache(threads, 4096), traces)
	results := m.Run()
	if len(results) != threads {
		t.Fatalf("results length %d", len(results))
	}
	for i, r := range results {
		if r.Instructions == 0 || r.Cycles == 0 {
			t.Fatalf("thread %d empty result: %+v", i, r)
		}
		if r.Hits+r.Misses != 5000 {
			t.Fatalf("thread %d accesses = %d, want 5000", i, r.Hits+r.Misses)
		}
		if ipc := r.IPC(); ipc <= 0 || ipc > 1 {
			t.Fatalf("thread %d IPC = %v out of (0,1]", i, ipc)
		}
	}
}

func TestMulticoreDeterminism(t *testing.T) {
	mk := func() []ThreadResult {
		traces := make([]*trace.Trace, 2)
		rng := xrand.New(5)
		for i := range traces {
			tr := &trace.Trace{Accesses: make([]trace.Access, 2000)}
			for j := range tr.Accesses {
				tr.Accesses[j] = trace.Access{Addr: uint64(i)<<40 | rng.Uint64()%1024, Gap: 3}
			}
			traces[i] = tr
		}
		return NewMulticore(buildCache(2, 1024), traces).Run()
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic results: %+v vs %+v", a[i], b[i])
		}
	}
}

// A thread with a cache-resident working set must achieve higher IPC than a
// streaming thread: the timing model must reward hits.
func TestMulticoreHitsBeatMisses(t *testing.T) {
	small := &trace.Trace{Accesses: make([]trace.Access, 8000)}
	for j := range small.Accesses {
		small.Accesses[j] = trace.Access{Addr: 1<<40 | uint64(j%128), Gap: 5}
	}
	streamT := &trace.Trace{Accesses: make([]trace.Access, 8000)}
	for j := range streamT.Accesses {
		streamT.Accesses[j] = trace.Access{Addr: 2<<40 | uint64(j), Gap: 5}
	}
	m := NewMulticore(buildCache(2, 2048), []*trace.Trace{small, streamT})
	res := m.Run()
	if res[0].IPC() <= 2*res[1].IPC() {
		t.Fatalf("resident thread IPC %v not well above streaming %v",
			res[0].IPC(), res[1].IPC())
	}
	if res[0].MissRate() > 0.1 || res[1].MissRate() < 0.9 {
		t.Fatalf("miss rates wrong: %v %v", res[0].MissRate(), res[1].MissRate())
	}
}

// Memory bandwidth contention: many co-running streaming threads must slow
// each other down relative to running nearly alone.
func TestMulticoreBandwidthContention(t *testing.T) {
	mkStream := func(id int) *trace.Trace {
		tr := &trace.Trace{Accesses: make([]trace.Access, 4000)}
		for j := range tr.Accesses {
			tr.Accesses[j] = trace.Access{Addr: uint64(id+1)<<40 | uint64(j), Gap: 0}
		}
		return tr
	}
	solo := NewMulticore(buildCache(1, 1024), []*trace.Trace{mkStream(0)}).Run()
	// An in-order thread issues one miss per ≈213 cycles, each occupying
	// the channel for 4 cycles, so saturation needs >53 streaming threads.
	const threads = 64
	many := make([]*trace.Trace, threads)
	for i := range many {
		many[i] = mkStream(i)
	}
	crowd := NewMulticore(buildCache(threads, 1024), many).Run()
	var worst uint64
	for _, r := range crowd {
		if r.Cycles > worst {
			worst = r.Cycles
		}
	}
	if worst <= solo[0].Cycles+solo[0].Cycles/10 {
		t.Fatalf("no bandwidth contention: solo %d cycles, crowded worst %d",
			solo[0].Cycles, worst)
	}
}

func TestMulticoreValidation(t *testing.T) {
	c := buildCache(1, 1024)
	for _, fn := range []func(){
		func() { NewMulticore(c, nil) },
		func() { NewMulticore(c, []*trace.Trace{{}, {}}) },
		func() { NewMulticore(c, []*trace.Trace{{}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestThreadResultMetrics(t *testing.T) {
	r := ThreadResult{Instructions: 100, Cycles: 200, Hits: 30, Misses: 10}
	if math.Abs(r.IPC()-0.5) > 1e-12 {
		t.Fatalf("IPC = %v", r.IPC())
	}
	if math.Abs(r.MissRate()-0.25) > 1e-12 {
		t.Fatalf("MissRate = %v", r.MissRate())
	}
	var zero ThreadResult
	if zero.IPC() != 0 || zero.MissRate() != 0 {
		t.Fatal("zero result metrics not zero")
	}
}

func BenchmarkMulticoreAccess(b *testing.B) {
	traces := make([]*trace.Trace, 8)
	rng := xrand.New(1)
	for i := range traces {
		tr := &trace.Trace{Accesses: make([]trace.Access, b.N/8+1000)}
		for j := range tr.Accesses {
			tr.Accesses[j] = trace.Access{Addr: uint64(i)<<40 | rng.Uint64()%16384, Gap: 5}
		}
		traces[i] = tr
	}
	b.ResetTimer()
	NewMulticore(buildCache(8, 16384), traces).Run()
}

func TestWarmupExcludesColdFill(t *testing.T) {
	// A trace whose first half misses (cold fill) and second half hits:
	// with warmup at 0.5, the reported miss rate must be near zero.
	tr := &trace.Trace{Accesses: make([]trace.Access, 4000)}
	for j := range tr.Accesses {
		tr.Accesses[j] = trace.Access{Addr: 1<<40 | uint64(j%2000), Gap: 1}
	}
	cold := NewMulticore(buildCache(1, 4096), []*trace.Trace{tr}).Run()
	warm := NewMulticore(buildCache(1, 4096), []*trace.Trace{tr})
	warm.SetWarmup(0.5)
	res := warm.Run()
	if cold[0].MissRate() < 0.45 {
		t.Fatalf("cold miss rate = %v, want ≈0.5", cold[0].MissRate())
	}
	if res[0].MissRate() > 0.05 {
		t.Fatalf("warmed miss rate = %v, want ≈0", res[0].MissRate())
	}
	if res[0].Instructions >= cold[0].Instructions {
		t.Fatal("warmup did not shrink the measured window")
	}
	// The shared cache's stats were reset at the warmup point: hits only.
	if warm.Cache().Stats(0).Misses > warm.Cache().Stats(0).Hits/10 {
		t.Fatalf("cache stats still include fill: %d misses, %d hits",
			warm.Cache().Stats(0).Misses, warm.Cache().Stats(0).Hits)
	}
}

func TestWarmupValidation(t *testing.T) {
	m := NewMulticore(buildCache(1, 64),
		[]*trace.Trace{{Accesses: []trace.Access{{Addr: 1}}}})
	for _, f := range []float64{-0.1, 0.95} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetWarmup(%v) did not panic", f)
				}
			}()
			m.SetWarmup(f)
		}()
	}
}
