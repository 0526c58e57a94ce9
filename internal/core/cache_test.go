package core

import (
	"math"
	"testing"

	"fscache/internal/analytic"
	"fscache/internal/cachearray"
	"fscache/internal/futility"
	"fscache/internal/recency"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// streamDriver feeds always-missing (streaming) accesses, choosing the
// inserting partition with the configured probabilities — the paper's
// trace-feeding-speed method for controlling insertion rates (§IV-C).
type streamDriver struct {
	rng     *xrand.Rand
	insProb []float64
	next    []uint64
}

func newStreamDriver(seed uint64, insProb []float64) *streamDriver {
	next := make([]uint64, len(insProb))
	for i := range next {
		next[i] = uint64(i) << 40 // disjoint address spaces per partition
	}
	return &streamDriver{rng: xrand.New(seed), insProb: insProb, next: next}
}

func (d *streamDriver) step(c *Cache) {
	u := d.rng.Float64()
	p, acc := 0, 0.0
	for i, pr := range d.insProb {
		acc += pr
		if u < acc {
			p = i
			break
		}
	}
	c.Access(d.next[p], p, trace.NoNextUse)
	d.next[p]++
}

func newTestCache(t *testing.T, scheme Scheme, parts, lines, r int) *Cache {
	t.Helper()
	return New(Config{
		Array:  cachearray.NewRandom(lines, r, 42),
		Ranker: futility.NewExactLRU(lines, parts),
		Scheme: scheme,
		Parts:  parts,
	})
}

func TestHitAndMissAccounting(t *testing.T) {
	c := newTestCache(t, NewFSFixed(1), 1, 64, 8)
	c.SetTargets([]int{64})
	if res := c.Access(1, 0, trace.NoNextUse); res.Hit {
		t.Fatal("first access hit")
	}
	if res := c.Access(1, 0, trace.NoNextUse); !res.Hit {
		t.Fatal("second access missed")
	}
	st := c.Stats(0)
	if st.Hits != 1 || st.Misses != 1 || st.Insertions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Sizes()[0] != 1 {
		t.Fatalf("size = %d", c.Sizes()[0])
	}
	if c.Accesses() != 2 {
		t.Fatalf("accesses = %d", c.Accesses())
	}
}

func TestSizeConservation(t *testing.T) {
	const lines = 256
	c := newTestCache(t, NewFSFeedback(2, FSFeedbackConfig{}), 2, lines, 16)
	c.SetTargets([]int{128, 128})
	d := newStreamDriver(7, []float64{0.5, 0.5})
	for i := 0; i < 20000; i++ {
		d.step(c)
		if i%500 == 0 {
			sum := c.Sizes()[0] + c.Sizes()[1]
			valid := 0
			for l := 0; l < lines; l++ {
				if _, ok := cacheArrayOf(c).AddrOf(l); ok {
					valid++
				}
			}
			if sum != valid {
				t.Fatalf("step %d: sizes sum %d != valid lines %d", i, sum, valid)
			}
			if c.Sizes()[0] < 0 || c.Sizes()[1] < 0 {
				t.Fatalf("negative size: %v", c.Sizes())
			}
		}
	}
	if got := c.Sizes()[0] + c.Sizes()[1]; got != lines {
		t.Fatalf("cache not full after warmup: %d/%d", got, lines)
	}
}

func cacheArrayOf(c *Cache) cachearray.Array { return c.array }

// FS-feedback must converge partition sizes to their targets even when
// insertion rates are badly mismatched with the target split.
func TestFSFeedbackSizingConvergence(t *testing.T) {
	const lines = 4096
	fs := NewFSFeedback(2, FSFeedbackConfig{})
	c := New(Config{
		Array:     cachearray.NewRandom(lines, 16, 1),
		Ranker:    futility.NewCoarseTS(lines, 2),
		Reference: futility.NewExactLRU(lines, 2),
		Scheme:    fs,
		Parts:     2,
	})
	c.SetTargets([]int{2048, 2048})
	d := newStreamDriver(3, []float64{0.8, 0.2}) // pressure 4:1, targets 1:1
	for i := 0; i < 40*lines; i++ {
		d.step(c)
	}
	// Sustained occupancy over a post-warmup window must sit at the target
	// despite the 4:1 insertion pressure.
	var sum float64
	const probe = 10 * lines
	for i := 0; i < probe; i++ {
		d.step(c)
		sum += float64(c.Sizes()[0])
	}
	if mean := sum / probe; math.Abs(mean-2048) > 0.06*2048 {
		t.Fatalf("partition 0 mean size %v, want ≈2048 (α=%v)", mean, fs.Alphas())
	}
}

// End-to-end validation of Equation (1): fixed scaling factors computed by
// the analytical model must hold the partition sizes at their targets on a
// random-candidates cache (the Uniformity Assumption realized).
func TestFSFixedEquation1HoldsSizes(t *testing.T) {
	const lines = 8192
	cases := []struct{ i1, s1 float64 }{
		{0.5, 0.6},
		{0.5, 0.9},
		{0.3, 0.7},
	}
	for _, tc := range cases {
		a2, err := analytic.ScalingFactor2P(tc.i1, tc.s1, 16)
		if err != nil {
			t.Fatal(err)
		}
		fs := NewFSFixed(2)
		fs.SetAlphas([]float64{1, a2})
		c := New(Config{
			Array:  cachearray.NewRandom(lines, 16, 11),
			Ranker: futility.NewExactLRU(lines, 2),
			Scheme: fs,
			Parts:  2,
		})
		c.SetTargets([]int{int(tc.s1 * lines), lines - int(tc.s1*lines)})
		d := newStreamDriver(13, []float64{tc.i1, 1 - tc.i1})
		for i := 0; i < 40*lines; i++ {
			d.step(c)
		}
		// Time-averaged occupancy over a second, measurement-only phase.
		meanBase := c.MeanOccupancy(0)
		_ = meanBase
		var sum float64
		const probe = 20 * lines
		for i := 0; i < probe; i++ {
			d.step(c)
			sum += float64(c.Sizes()[0])
		}
		got := sum / probe / lines
		if math.Abs(got-tc.s1) > 0.03 {
			t.Errorf("I1=%v S1=%v: mean size fraction %v, want %v (α₂=%v)",
				tc.i1, tc.s1, got, tc.s1, a2)
		}
	}
}

// With all scaling factors 1, FS preserves full candidate associativity:
// AEF ≈ R/(R+1) regardless of the partition count (§IV-C).
func TestFSUnitAlphaAEF(t *testing.T) {
	const lines, r = 4096, 16
	parts := 4
	fs := NewFSFixed(parts)
	c := New(Config{
		Array:  cachearray.NewRandom(lines, r, 21),
		Ranker: futility.NewExactLRU(lines, parts),
		Scheme: fs,
		Parts:  parts,
	})
	c.SetTargets([]int{1024, 1024, 1024, 1024})
	d := newStreamDriver(23, []float64{0.25, 0.25, 0.25, 0.25})
	for i := 0; i < 60*lines; i++ {
		d.step(c)
	}
	want := analytic.UnpartitionedAEF(r)
	for p := 0; p < parts; p++ {
		if aef := c.Stats(p).AEF(); math.Abs(aef-want) > 0.02 {
			t.Errorf("partition %d AEF = %v, want ≈%v", p, aef, want)
		}
	}
}

// countingFullyAssoc is a fully-associative array that counts the candidate
// lists it is asked for.
type countingFullyAssoc struct {
	*cachearray.FullyAssoc
	candidates int
}

func (a *countingFullyAssoc) Candidates(addr uint64, dst []int) []int {
	a.candidates++
	return a.FullyAssoc.Candidates(addr, dst)
}

func TestFullyAssociativeFastPath(t *testing.T) {
	const lines = 512
	fs := NewFSFixed(2)
	fa := cachearray.NewFullyAssoc(lines)
	c := New(Config{
		Array:  fa,
		Ranker: futility.NewExactLRU(lines, 2),
		Scheme: fs,
		Parts:  2,
	})
	// New takes the fast path for the concrete type; the counting wrapper
	// goes in after it, to see every list the controller asks for.
	arr := &countingFullyAssoc{FullyAssoc: fa}
	c.array = arr
	c.SetTargets([]int{256, 256})
	d := newStreamDriver(33, []float64{0.5, 0.5})
	for i := 0; i < 20*lines; i++ {
		d.step(c)
	}
	// With α = 1 everywhere and exact LRU, a fully-associative cache always
	// evicts futility 1 — perfect associativity.
	for p := 0; p < 2; p++ {
		if aef := c.Stats(p).AEF(); aef < 0.99 {
			t.Errorf("partition %d AEF = %v, want 1", p, aef)
		}
	}
	if c.Sizes()[0]+c.Sizes()[1] != lines {
		t.Fatalf("cache not full: %v", c.Sizes())
	}
	// The fill takes free lines and every later miss decides over the
	// partitions' worst lines: no miss copies the whole array.
	if evs := c.Stats(0).Evictions + c.Stats(1).Evictions; evs == 0 || arr.candidates != 0 {
		t.Fatalf("%d evictions asked for %d candidate lists, want some evictions and none", evs, arr.candidates)
	}
}

// The zcache's relocations must not corrupt controller metadata: partition
// sizes remain consistent with a recount of line ownership.
func TestZCacheMetadataConsistency(t *testing.T) {
	const lines = 512
	fs := NewFSFeedback(2, FSFeedbackConfig{})
	arr := cachearray.NewZCache(lines, 4, 3, 41)
	c := New(Config{
		Array:  arr,
		Ranker: futility.NewExactLRU(lines, 2),
		Scheme: fs,
		Parts:  2,
	})
	c.SetTargets([]int{256, 256})
	d := newStreamDriver(43, []float64{0.7, 0.3})
	for i := 0; i < 30000; i++ {
		d.step(c)
	}
	counts := make([]int, 2)
	valid := 0
	for l := 0; l < lines; l++ {
		if _, ok := arr.AddrOf(l); ok {
			valid++
			counts[c.partOf(l)]++
		} else if c.Resident(l) {
			t.Fatalf("invalid line %d has partition code %d", l, c.meta.At(int32(l)))
		}
	}
	for p := 0; p < 2; p++ {
		if counts[p] != c.Sizes()[p] {
			t.Fatalf("partition %d: recount %d != tracked %d", p, counts[p], c.Sizes()[p])
		}
	}
	if valid != lines {
		t.Fatalf("cache not full: %d", valid)
	}
	// FS-feedback should be holding the sizes near target despite 7:3
	// insertion pressure (zcache candidates are close to uniform).
	if s := c.Sizes()[0]; math.Abs(float64(s)-256) > 40 {
		t.Errorf("partition 0 size %d, want ≈256", s)
	}
}

// OPT ranking end to end: with next-use information a small cache must
// avoid evicting lines that are about to be reused.
func TestOPTEndToEnd(t *testing.T) {
	const lines = 8
	fs := NewFSFixed(1)
	c := New(Config{
		Array:  cachearray.NewFullyAssoc(lines),
		Ranker: futility.NewExactOPT(lines, 1, 51),
		Scheme: fs,
		Parts:  1,
	})
	c.SetTargets([]int{lines})
	// Build a loop over 9 addresses with full next-use knowledge: Belady
	// keeps 8 of 9 stable; LRU would miss every time.
	var accesses []trace.Access
	for rep := 0; rep < 200; rep++ {
		for a := uint64(0); a < 9; a++ {
			accesses = append(accesses, trace.Access{Addr: a})
		}
	}
	tr := &trace.Trace{Accesses: accesses}
	tr.ComputeNextUse()
	misses := 0
	for i, a := range tr.Accesses {
		if !c.Access(a.Addr, 0, tr.NextUse[i]).Hit {
			misses++
		}
	}
	// OPT on a 9-line loop with 8 lines: steady state misses 1 of 9
	// accesses (the victim alternates), so ≈ 200 + compulsory 9.
	maxMisses := 2*200 + 9
	if misses > maxMisses {
		t.Fatalf("OPT misses = %d of %d, want < %d", misses, len(accesses), maxMisses)
	}
	lruMisses := len(accesses) // LRU thrashes the loop completely
	if misses >= lruMisses/2 {
		t.Fatalf("OPT no better than LRU would be: %d misses", misses)
	}
}

// demoteScheme demotes into partition to, through a retained buffer as the
// Scheme contract asks.
type demoteScheme struct {
	to  int
	dem []int
}

func (*demoteScheme) Bind(_, _ []int) {}
func (d *demoteScheme) Decide(cands []Candidate, insertPart int) Decision {
	// Demote every partition-0 candidate except the victim; evict the
	// globally most useless.
	best, bestF := 0, -1.0
	for i := range cands {
		if cands[i].Futility > bestF {
			bestF = cands[i].Futility
			best = i
		}
	}
	d.dem = d.dem[:0]
	for i := range cands {
		if i != best && cands[i].Part == 0 {
			d.dem = append(d.dem, i)
		}
	}
	return Decision{Victim: best, Demote: d.dem, DemoteTo: d.to}
}

func TestDemotionAccounting(t *testing.T) {
	const lines = 128
	c := New(Config{
		Array:  cachearray.NewRandom(lines, 8, 61),
		Ranker: futility.NewExactLRU(lines, 3),
		Scheme: &demoteScheme{to: 2},
		Parts:  3, // 0,1 apps; 2 pseudo-unmanaged
	})
	c.SetTargets([]int{64, 64, 0})
	d := newStreamDriver(63, []float64{0.5, 0.5, 0})
	for i := 0; i < 5000; i++ {
		d.step(c)
	}
	if c.Stats(0).Demotions == 0 {
		t.Fatal("no demotions recorded")
	}
	if c.Sizes()[2] == 0 {
		t.Fatal("pseudo-partition received no lines")
	}
	total := c.Sizes()[0] + c.Sizes()[1] + c.Sizes()[2]
	if total != lines {
		t.Fatalf("size sum %d != %d", total, lines)
	}
	// Owner-side accounting, by recount: partitions 0 and 1 own everything.
	for l := range c.meta.Len() {
		if c.ownerOf(l) == 2 {
			t.Fatalf("pseudo-partition owns line %d", l)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The first demotion made 2 the cache's one demotion target.
	c.scheme.(*demoteScheme).to = 1
	r := func() (r any) {
		defer func() { r = recover() }()
		for i := 0; i < 5000; i++ {
			d.step(c)
		}
		return nil
	}()
	if r != "core: demotion into partition 1; the cache's one demotion target is 2" {
		t.Fatalf("a second demotion target: recovered %v", r)
	}
}

// countingDemoter is demoteScheme made a Counter: it tallies every traffic
// report it receives, per partition.
type countingDemoter struct {
	demoteScheme
	ins, evs []uint64
}

func (d *countingDemoter) OnInsert(part int)   { d.ins[part]++ }
func (d *countingDemoter) OnEviction(part int) { d.evs[part]++ }

// TestCounterSeesDemotions fences the Counter contract: the controller
// reports each insertion and each eviction once, and each demotion as an
// eviction from its source and an insertion into its destination, so over a
// run the reports add up to the partitions' own counts.
func TestCounterSeesDemotions(t *testing.T) {
	const lines, parts = 128, 3
	s := &countingDemoter{demoteScheme: demoteScheme{to: 2}, ins: make([]uint64, parts), evs: make([]uint64, parts)}
	c := New(Config{
		Array:  cachearray.NewRandom(lines, 8, 61),
		Ranker: futility.NewExactLRU(lines, parts),
		Scheme: s,
		Parts:  parts, // 0,1 apps; 2 pseudo-unmanaged
	})
	c.SetTargets([]int{64, 64, 0})
	d := newStreamDriver(63, []float64{0.5, 0.5, 0})
	for i := 0; i < 5000; i++ {
		d.step(c)
	}
	var insertions, evictions, demotions, ins, evs uint64
	for p := 0; p < parts; p++ {
		st := c.Stats(p)
		insertions += st.Insertions
		evictions += st.Evictions
		demotions += st.Demotions
		ins += s.ins[p]
		evs += s.evs[p]
	}
	if evictions == 0 || demotions == 0 {
		t.Fatalf("%d evictions and %d demotions: the run exercises neither", evictions, demotions)
	}
	if ins != insertions+demotions {
		t.Errorf("%d OnInsert reports, want %d insertions + %d demotions", ins, insertions, demotions)
	}
	if evs != evictions+demotions {
		t.Errorf("%d OnEviction reports, want %d evictions + %d demotions", evs, evictions, demotions)
	}
	// Nothing inserts into partition 2: every report there is a demotion's.
	if s.ins[2] != demotions {
		t.Errorf("partition 2: %d OnInsert reports, want its %d demotions", s.ins[2], demotions)
	}
}

func TestConfigValidation(t *testing.T) {
	arr := cachearray.NewRandom(16, 4, 1)
	rk := futility.NewExactLRU(16, 1)
	sch := NewFSFixed(1)
	cases := []func(){
		func() { New(Config{Ranker: rk, Scheme: sch, Parts: 1}) },
		func() { New(Config{Array: arr, Scheme: sch, Parts: 1}) },
		func() { New(Config{Array: arr, Ranker: rk, Parts: 1}) },
		func() { New(Config{Array: arr, Ranker: rk, Scheme: sch}) },
		func() {
			c := New(Config{Array: arr, Ranker: rk, Scheme: sch, Parts: 1})
			c.SetTargets([]int{1, 2})
		},
		func() {
			c := New(Config{Array: arr, Ranker: rk, Scheme: sch, Parts: 1})
			c.Access(1, 5, trace.NoNextUse)
		},
		func() {
			// Fully-associative array without a WorstTracker ranker.
			New(Config{
				Array:  cachearray.NewFullyAssoc(16),
				Ranker: futility.NewCoarseTS(16, 1),
				Scheme: sch,
				Parts:  1,
			})
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// A line's partition code takes 1 byte while 2·Parts < 256 and 2 bytes up to
// New's limit of MaxInt16 partitions. At each width's edges every owner reads
// back as its own partition when resident, and as owner and demotion target
// when demoted into any other partition — up to owner MaxInt16−1 at code
// 2·MaxInt16 — and New refuses a partition count whose codes two bytes cannot
// hold.
func TestPartitionTagWidth(t *testing.T) {
	for _, tc := range []struct{ parts, bytes int }{{1, 1}, {2, 1}, {127, 1}, {128, 2}, {math.MaxInt16, 2}} {
		c := &Cache{parts: tc.parts, meta: recency.NewTable[uint8](1, maxCode(tc.parts))}
		if n := c.meta.Bytes(); n != tc.bytes {
			t.Fatalf("Parts = %d: the partition code is %d bytes a line, want %d", tc.parts, n, tc.bytes)
		}
		for _, owner := range []int{0, 1, tc.parts/2 - 1, tc.parts - 2, tc.parts - 1} {
			if owner < 0 || owner >= tc.parts {
				continue
			}
			c.meta.Put(0, int32(owner)+1)
			if c.ownerOf(0) != owner || c.partOf(0) != owner || !c.Resident(0) {
				t.Fatalf("Parts = %d, owner %d resident: owner %d, partition %d", tc.parts, owner, c.ownerOf(0), c.partOf(0))
			}
			c.demoteTo = (owner + 1) % tc.parts
			if c.demoteTo == owner {
				continue
			}
			c.meta.Put(0, c.demotedID(owner))
			if c.ownerOf(0) != owner || c.partOf(0) != c.demoteTo || !c.Resident(0) {
				t.Fatalf("Parts = %d, owner %d demoted into %d: code %d, owner %d, partition %d",
					tc.parts, owner, c.demoteTo, c.meta.At(0), c.ownerOf(0), c.partOf(0))
			}
		}
		c.meta.Put(0, noLine)
		if c.ownerOf(0) != -1 || c.partOf(0) != -1 || c.Resident(0) {
			t.Fatalf("Parts = %d, free line: owner %d, partition %d", tc.parts, c.ownerOf(0), c.partOf(0))
		}
	}
	defer func() {
		if r := recover(); r != "core: Parts exceeds the 16-bit per-line partition code" {
			t.Fatalf("Parts = MaxInt16+1: recovered %v", r)
		}
	}()
	New(Config{
		Array:  cachearray.NewRandom(16, 4, 1),
		Ranker: futility.NewExactLRU(16, 1),
		Scheme: NewFSFixed(1),
		Parts:  math.MaxInt16 + 1,
	})
}

func TestFSFixedValidation(t *testing.T) {
	fs := NewFSFixed(2)
	for _, fn := range []func(){
		func() { fs.SetAlphas([]float64{1}) },
		func() { fs.SetAlphas([]float64{1, -2}) },
		func() { NewFSFixed(0) },
		func() { NewFSFeedback(0, FSFeedbackConfig{}) },
		func() { NewFSFeedback(1, FSFeedbackConfig{Interval: -1}) },
		func() { NewFSFeedback(1, FSFeedbackConfig{Delta: 0.5}) },
		func() { NewFSFeedback(2, FSFeedbackConfig{}).Bind(make([]int, 2), make([]int, 1)) },
		func() { NewFSFeedback(2, FSFeedbackConfig{}).Bind(make([]int, 1), make([]int, 2)) },
		func() { NewFSFixed(2).Bind(make([]int, 2), make([]int, 1)) },
		func() { NewFSFixed(2).Bind(make([]int, 1), make([]int, 2)) },
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

func BenchmarkAccessRandomExactFS(b *testing.B) {
	const lines = 8192
	fs := NewFSFixed(2)
	c := New(Config{
		Array:  cachearray.NewRandom(lines, 16, 1),
		Ranker: futility.NewExactLRU(lines, 2),
		Scheme: fs,
		Parts:  2,
	})
	c.SetTargets([]int{4096, 4096})
	rng := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(rng.Uint64()%(lines*4), i%2, trace.NoNextUse)
	}
}
