package alloc

// The exact-profiler tests: at sampleShift 0, with maxTags as the profiled
// depth, the Profiler is Mattson's stack algorithm.

import (
	"math"
	"testing"
	"testing/quick"

	"fscache/internal/baselines"
	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/workload"
	"fscache/internal/xrand"
)

// walk feeds an entire trace through the profiler.
func walk(p *Profiler, t *trace.Trace) {
	for i := range t.Accesses {
		p.Touch(t.Accesses[i].Addr)
	}
}

func TestStackDistancesByHand(t *testing.T) {
	p := NewProfiler(16, 0, 1)
	// a b a → a: cold; b: cold; a: distance 2 (b used since).
	p.Touch(1)
	p.Touch(2)
	p.Touch(1)
	if p.Far() != 2 {
		t.Fatalf("cold = %d", p.Far())
	}
	h := p.Histogram()
	if h[0] != 0 || h[1] != 1 {
		t.Fatalf("hist = %v, want distance 2 once", h[:4])
	}
	// Immediate re-reference: distance 1.
	p.Touch(1)
	if p.Histogram()[0] != 1 {
		t.Fatal("distance-1 reference not recorded")
	}
	if p.Offered() != 4 {
		t.Fatalf("total = %d", p.Offered())
	}
}

func TestMissRatioMonotone(t *testing.T) {
	p := NewProfiler(4096, 0, 2)
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	walk(p, trace.Collect(prof.Shrunk(16).NewGenerator(3, 0), 50000))
	prev := 1.1
	for _, s := range []int{0, 1, 16, 64, 256, 1024, 4096} {
		mr := p.MissRatio(s)
		if mr < 0 || mr > 1 {
			t.Fatalf("miss ratio %v out of range", mr)
		}
		if mr > prev+1e-12 {
			t.Fatalf("miss ratio not monotone: %v after %v at size %d", mr, prev, s)
		}
		prev = mr
	}
	if p.MissRatio(0) != 1 {
		t.Fatal("zero-size cache must miss always")
	}
}

// The headline property: the profiler's predicted miss ratio equals the
// measured miss count of a simulated fully-associative LRU cache of the
// same size, reference for reference.
func TestPredictsFullyAssociativeLRU(t *testing.T) {
	prof, err := workload.ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Collect(prof.Shrunk(16).NewGenerator(7, 0), 40000)

	p := NewProfiler(1<<16, 0, 8)
	walk(p, tr)
	predictsLRU(t, p, tr, 64, 256, 1024)
}

// The same property past 16 bits: 2^17 tags over 90,000 addresses, so the
// tags, their table entries and their slots all pass 2^16 and every id table
// has a high half, against fully-associative LRU caches whose exact ranker's
// slots pass 2^16 too.
func TestPredictsFullyAssociativeLRUPast16Bits(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 2^17-tag profiler and three caches of up to 80,000 lines")
	}
	const addrs, refs = 90000, 360000
	rng := xrand.New(0x16b175)
	tr := &trace.Trace{Accesses: make([]trace.Access, refs)}
	for i := range tr.Accesses {
		tr.Accesses[i].Addr = xrand.Mix64(uint64(rng.Intn(addrs)))
	}
	p := NewProfiler(1<<17, 0, 8)
	walk(p, tr)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if live := p.idx.Live(); live < 1<<16 {
		t.Fatalf("%d tags in use, want past 2^16", live)
	}
	predictsLRU(t, p, tr, 1024, 1<<16, 80000)
}

// predictsLRU simulates a fully-associative LRU cache of each size over tr
// and compares its miss ratio with p's prediction.
func predictsLRU(t *testing.T, p *Profiler, tr *trace.Trace, sizes ...int) {
	t.Helper()
	for _, lines := range sizes {
		c := core.New(core.Config{
			Array:  cachearray.NewFullyAssoc(lines),
			Ranker: futility.NewExactLRU(lines, 1),
			Scheme: baselines.NewUnmanaged(),
			Parts:  1,
		})
		c.SetTargets([]int{lines})
		misses := 0
		for i := range tr.Accesses {
			if !c.Access(tr.Accesses[i].Addr, 0, trace.NoNextUse).Hit {
				misses++
			}
		}
		predicted := p.MissRatio(lines)
		measured := float64(misses) / float64(tr.Len())
		if math.Abs(predicted-measured) > 1e-9 {
			t.Fatalf("size %d: predicted %v, measured %v", lines, predicted, measured)
		}
	}
}

// Property: total = cold + sum(hist) and distances are well-formed for any
// access pattern.
func TestQuickAccounting(t *testing.T) {
	f := func(raw []uint8) bool {
		p := NewProfiler(64, 0, 11)
		for _, a := range raw {
			p.Touch(uint64(a % 32))
		}
		var sum uint64
		for _, h := range p.Histogram() {
			sum += h
		}
		return p.Offered() == uint64(len(raw)) && sum+p.Far() == p.Offered()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Distances beyond maxTags fold into cold misses, never panic.
func TestDepthFolding(t *testing.T) {
	p := NewProfiler(4, 0, 13)
	for i := 0; i < 10; i++ {
		p.Touch(uint64(i))
	}
	p.Touch(0) // distance 10 > maxTags 4
	if p.MissRatio(4) != 1 {
		t.Fatalf("deep reuse leaked into small-cache hits: %v", p.MissRatio(4))
	}
	h := p.Histogram()
	for _, v := range h {
		if v != 0 {
			t.Fatalf("hist = %v, want empty", h)
		}
	}
}

func TestCurve(t *testing.T) {
	p := NewProfiler(128, 0, 17)
	rng := xrand.New(19)
	for i := 0; i < 20000; i++ {
		p.Touch(rng.Uint64() % 100)
	}
	curve := p.Curve([]int{1, 50, 100, 128})
	// With 100 uniformly accessed lines, a 100-line cache hits everything
	// after compulsory misses.
	if curve[3] > 0.01 {
		t.Fatalf("full-footprint cache miss ratio = %v", curve[3])
	}
	if !(curve[0] > curve[1] && curve[1] > curve[2]) {
		t.Fatalf("curve not decreasing: %v", curve)
	}
}

// Sizes beyond the profiled depth saturate: MissRatio must return the
// MaxLines value (an overstatement of the true miss ratio) and Truncated
// must flag exactly those sizes.
func TestTruncationSurfaced(t *testing.T) {
	const depth = 8
	p := NewProfiler(depth, 0, 23)
	// A cyclic scan over 16 lines: every reuse is at stack distance 16,
	// beyond the profiled depth, so the profiler folds all of them into
	// cold misses even though a 16-line LRU cache would hit every reuse.
	for rep := 0; rep < 4; rep++ {
		for a := uint64(0); a < 16; a++ {
			p.Touch(a)
		}
	}
	if p.MaxLines() != depth {
		t.Fatalf("MaxLines = %d, want %d", p.MaxLines(), depth)
	}
	atDepth := p.MissRatio(depth)
	for _, lines := range []int{depth + 1, 16, 1 << 20} {
		if !p.Truncated(lines) {
			t.Errorf("Truncated(%d) = false, want true", lines)
		}
		if got := p.MissRatio(lines); got != atDepth {
			t.Errorf("MissRatio(%d) = %v, want saturated value %v", lines, got, atDepth)
		}
	}
	for _, lines := range []int{0, 1, depth} {
		if p.Truncated(lines) {
			t.Errorf("Truncated(%d) = true, want false", lines)
		}
	}
	// The saturated value genuinely overstates the true miss ratio here: a
	// 16-line cache would only take 16 compulsory misses in 64 accesses.
	if atDepth != 1 {
		t.Fatalf("cyclic scan beyond depth should profile as all misses, got %v", atDepth)
	}
}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewProfiler(0, 0, 1)
}

// Boundary: a reuse at stack distance exactly MaxLines() is credited, so
// MissRatio(MaxLines()) is exact and saturation starts strictly beyond it —
// Truncated(MaxLines()) is false, Truncated(MaxLines()+1) is true, and the
// two sizes report the same (saturated) ratio.
func TestMaxDepthBoundary(t *testing.T) {
	const depth = 8
	p := NewProfiler(depth, 0, 1)
	// Cycle through exactly `depth` distinct lines twice: every reuse has
	// stack distance depth, the largest the profiler resolves.
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < depth; a++ {
			p.Touch(a)
		}
	}
	if p.Truncated(depth) {
		t.Fatalf("Truncated(%d) = true; the MaxLines() point is fully resolved", depth)
	}
	if !p.Truncated(depth + 1) {
		t.Fatalf("Truncated(%d) = false; saturation must start past MaxLines()", depth+1)
	}
	// 8 cold misses + 8 reuses at distance 8: a depth-8 cache hits all the
	// reuses, so the exact ratio at MaxLines() is 1/2 — and NOT the 1.0 a
	// (depth−1)-line cache would see.
	if got := p.MissRatio(depth); got != 0.5 {
		t.Fatalf("MissRatio(MaxLines()) = %v, want exact 0.5", got)
	}
	if got := p.MissRatio(depth - 1); got != 1 {
		t.Fatalf("MissRatio(MaxLines()-1) = %v, want 1 (distance-%d reuses all miss)", got, depth)
	}
	if p.MissRatio(depth+1) != p.MissRatio(depth) {
		t.Fatalf("MissRatio past MaxLines must saturate at the MaxLines value")
	}
}
