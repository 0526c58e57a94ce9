package futility

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// futilityOf reads the normalized half of a FutilityRaw query.
func futilityOf(r Ranker, line, part int) float64 {
	f, _ := r.FutilityRaw(line, part)
	return f
}

// boundCoarse plays core's part for a coarse ranker tested alone: it owns the
// sizes the ranker reads, counting a line in before OnInsert and out at
// OnEvict, as core.Cache does.
type boundCoarse struct {
	*CoarseTS
	sizes []int
}

func bound(c *CoarseTS) *boundCoarse {
	b := &boundCoarse{c, make([]int, len(c.current))}
	c.BindSizes(b.sizes)
	return b
}

func (b *boundCoarse) OnInsert(line, part int, ctx Context) {
	b.sizes[part]++
	b.CoarseTS.OnInsert(line, part, ctx)
}

func (b *boundCoarse) OnEvict(line, part int) {
	b.CoarseTS.OnEvict(line, part)
	b.sizes[part]--
}

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{LRU, "lru"}, {LFU, "lfu"}, {OPT, "opt"},
		{CoarseLRU, "coarse-lru"}, {Kind(99), "kind(99)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(c.k), got, c.want)
		}
	}
}

func TestReference(t *testing.T) {
	if Reference(CoarseLRU) != LRU {
		t.Fatal("Reference(CoarseLRU) != LRU")
	}
	for _, k := range []Kind{LRU, LFU, OPT} {
		if Reference(k) != k {
			t.Fatalf("Reference(%v) != %v", k, k)
		}
	}
}

func TestNewFactory(t *testing.T) {
	for _, k := range []Kind{LRU, LFU, OPT, CoarseLRU} {
		r := New(k, 16, 2, 1)
		if c, ok := r.(*CoarseTS); ok {
			r = bound(c)
		}
		r.OnInsert(3, 1, Context{})
		if r.Size(0) != 0 || r.Size(1) != 1 {
			t.Fatalf("kind %v: sizes %d, %d after one insert into partition 1", k, r.Size(0), r.Size(1))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	New(Kind(99), 16, 2, 1)
}

func TestExactLRUOrdering(t *testing.T) {
	r := NewExactLRU(8, 1)
	seq := uint64(0)
	// Insert lines 0,1,2 in order: 0 is oldest → most useless.
	for line := 0; line < 3; line++ {
		r.OnInsert(line, 0, Context{Seq: seq})
		seq++
	}
	f0, f1, f2 := futilityOf(r, 0, 0), futilityOf(r, 1, 0), futilityOf(r, 2, 0)
	if !(f0 > f1 && f1 > f2) {
		t.Fatalf("LRU futility ordering wrong: %v %v %v", f0, f1, f2)
	}
	if math.Abs(f0-1.0) > 1e-12 || math.Abs(f2-1.0/3) > 1e-12 {
		t.Fatalf("normalization wrong: f0=%v f2=%v", f0, f2)
	}
	// Touch line 0: now 1 is most useless.
	r.OnHit(0, 0, Context{Seq: seq})
	if w := r.Worst(0); w != 1 {
		t.Fatalf("Worst = %d, want 1", w)
	}
	r.OnEvict(1, 0)
	if r.Size(0) != 2 {
		t.Fatalf("Size = %d", r.Size(0))
	}
	if w := r.Worst(0); w != 2 {
		t.Fatalf("Worst after evict = %d, want 2", w)
	}
}

func TestExactLFUOrdering(t *testing.T) {
	r := NewExactLFU(8, 1, 1)
	r.OnInsert(0, 0, Context{})
	r.OnInsert(1, 0, Context{})
	r.OnHit(0, 0, Context{}) // line 0 freq 2, line 1 freq 1
	if !(futilityOf(r, 1, 0) > futilityOf(r, 0, 0)) {
		t.Fatal("LFU: lower frequency must be more useless")
	}
	if w := r.Worst(0); w != 1 {
		t.Fatalf("Worst = %d, want 1", w)
	}
	r.OnHit(1, 0, Context{})
	r.OnHit(1, 0, Context{}) // line 1 freq 3 > line 0 freq 2
	if w := r.Worst(0); w != 0 {
		t.Fatalf("Worst after hits = %d, want 0", w)
	}
}

func TestExactOPTOrdering(t *testing.T) {
	r := NewExactOPT(8, 1, 1)
	r.OnInsert(0, 0, Context{NextUse: 100})
	r.OnInsert(1, 0, Context{NextUse: 50})
	r.OnInsert(2, 0, Context{NextUse: trace.NoNextUse})
	// Never-again line 2 is most useless, then 0 (farther), then 1.
	if w := r.Worst(0); w != 2 {
		t.Fatalf("Worst = %d, want 2", w)
	}
	if !(futilityOf(r, 0, 0) > futilityOf(r, 1, 0)) {
		t.Fatal("OPT: farther next use must be more useless")
	}
	r.OnHit(1, 0, Context{NextUse: 200})
	if !(futilityOf(r, 1, 0) > futilityOf(r, 0, 0)) {
		t.Fatal("OPT: hit did not refresh next use")
	}
}

func TestPartitionIsolation(t *testing.T) {
	r := NewExactLRU(8, 2)
	r.OnInsert(0, 0, Context{Seq: 0})
	r.OnInsert(1, 1, Context{Seq: 1})
	r.OnInsert(2, 1, Context{Seq: 2})
	if r.Size(0) != 1 || r.Size(1) != 2 {
		t.Fatalf("sizes = %d,%d", r.Size(0), r.Size(1))
	}
	// Sole line of partition 0 has futility 1 regardless of partition 1.
	if f := futilityOf(r, 0, 0); math.Abs(f-1) > 1e-12 {
		t.Fatalf("futility = %v", f)
	}
	if w := r.Worst(1); w != 1 {
		t.Fatalf("Worst(1) = %d", w)
	}
}

func TestOnMovePreservesRank(t *testing.T) {
	for _, mk := range []func() Ranker{
		func() Ranker { return NewExactLRU(8, 1) },
		func() Ranker { return NewExactLFU(8, 1, 1) },
		func() Ranker { return bound(NewCoarseTS(8, 1)) },
	} {
		r := mk()
		r.OnInsert(0, 0, Context{Seq: 0})
		r.OnInsert(1, 0, Context{Seq: 1})
		before := futilityOf(r, 0, 0)
		r.OnMove(0, 5, 0)
		after := futilityOf(r, 5, 0)
		if math.Abs(before-after) > 1e-9 {
			t.Errorf("%T: futility changed across move: %v → %v", r, before, after)
		}
		if r.Size(0) != 2 {
			t.Errorf("%T: size changed across move", r)
		}
	}
}

func TestLifecyclePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"seq decreased on insert", func() {
			r := NewExactLRU(4, 2)
			r.OnInsert(0, 0, Context{Seq: 7})
			r.OnInsert(1, 1, Context{Seq: 3}) // another partition: its own clock
			r.OnInsert(2, 0, Context{Seq: 6})
		}},
		{"seq decreased on hit", func() {
			r := NewExactLRU(4, 1)
			r.OnInsert(0, 0, Context{Seq: 7})
			r.OnHit(0, 0, Context{Seq: 6})
		}},
		{"hit untracked", func() { NewExactLRU(4, 1).OnHit(0, 0, Context{}) }},
		{"double insert lru", func() {
			r := NewExactLRU(4, 1)
			r.OnInsert(0, 0, Context{})
			r.OnInsert(0, 0, Context{})
		}},
		{"evict untracked", func() { NewExactLRU(4, 1).OnEvict(0, 0) }},
		{"futility untracked", func() { NewExactLRU(4, 1).FutilityRaw(0, 0) }},
		{"move untracked", func() { NewExactLRU(4, 1).OnMove(0, 1, 0) }},
		{"bad sizes", func() { NewExactLRU(0, 1) }},
		{"coarse bad sizes", func() { NewCoarseTS(4, 0) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "futility: ") {
					t.Errorf("%s: panic value %q, want a futility: message", c.name, msg)
				}
			}()
			c.fn()
		}()
	}
}

func TestCoarseTSTicks(t *testing.T) {
	c := bound(NewCoarseTS(64, 1))
	// With size < 16, K = 1: every access ticks the timestamp.
	c.OnInsert(0, 0, Context{})
	ts0 := c.current[0]
	c.OnInsert(1, 0, Context{})
	if c.current[0] != ts0+1 {
		t.Fatalf("timestamp did not tick: %d → %d", ts0, c.current[0])
	}
	// Distance of line 0 grows as other lines are accessed.
	d0 := c.Distance(0, 0)
	for i := 2; i < 10; i++ {
		c.OnInsert(i, 0, Context{})
	}
	if d1 := c.Distance(0, 0); d1 <= d0 {
		t.Fatalf("distance did not grow: %d → %d", d0, d1)
	}
	// A hit resets the distance to zero.
	c.OnHit(0, 0, Context{})
	if got := c.Distance(0, 0); got != 0 {
		t.Fatalf("distance after hit = %d, want 0", got)
	}
}

// TestCoarseHitWrites pins what a coarse hit writes: the line's tag, its
// partition's access counter and, on the hit that ticks, the partition's
// current timestamp. Every other field, core's bound sizes and the CDF tables
// included, reads the same before and after. A field added to CoarseTS fails
// the test until snapshot copies it.
func TestCoarseHitWrites(t *testing.T) {
	if n := reflect.TypeFor[CoarseTS]().NumField(); n != 7 {
		t.Fatalf("CoarseTS has %d fields; snapshot copies 7", n)
	}
	snapshot := func(c *CoarseTS) CoarseTS {
		s := CoarseTS{
			ts:      slices.Clone(c.ts),
			current: slices.Clone(c.current),
			counter: slices.Clone(c.counter),
			sizes:   slices.Clone(c.sizes),
			cdf:     make([]*cdfTable, len(c.cdf)),
			total:   slices.Clone(c.total),
			dirty:   slices.Clone(c.dirty),
		}
		for p, tab := range c.cdf {
			if tab != nil {
				cp := *tab
				s.cdf[p] = &cp
			}
		}
		return s
	}
	// 48 lines a partition: K = 3, so every third access to one ticks.
	const lines, parts = 96, 2
	c := bound(NewCoarseTS(lines, parts))
	for l := range lines {
		c.OnInsert(l, l%parts, Context{})
	}
	for l := range lines {
		c.FutilityRaw(l, l%parts)
	}
	seen := map[bool]int{}
	for i := range 12 {
		l := (7 * i) % lines
		p := l % parts
		want := snapshot(c.CoarseTS)
		tick := want.counter[p]+1 >= 3
		if tick {
			want.counter[p], want.current[p] = 0, want.current[p]+1
		} else {
			want.counter[p]++
		}
		want.ts[l] = want.current[p]
		c.OnHit(l, p, Context{})
		if got := snapshot(c.CoarseTS); !reflect.DeepEqual(got, want) {
			t.Fatalf("hit %d (line %d, tick %v) wrote more than its tag, counter and timestamp, or other values", i, l, tick)
		}
		seen[tick]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("hits on and off a tick: %d and %d, want both", seen[true], seen[false])
	}
}

func TestCoarseTSWraparound(t *testing.T) {
	// The 8-bit distance must be computed modulo 256: after current wraps
	// past a line's tag the distance stays correct (unsigned subtraction).
	c := NewCoarseTS(4, 1)
	c.OnInsert(0, 0, Context{})
	c.OnInsert(1, 0, Context{})
	// Tick ~300 times (size<16 → K=1): current wraps around the 8-bit space.
	for i := 0; i < 300; i++ {
		c.OnHit(1, 0, Context{})
	}
	// line 1 was just hit; its distance is 0 or 1 ticks back.
	if d := c.Distance(1, 0); d > 1 {
		t.Fatalf("recently hit line distance = %d", d)
	}
	// line 0's distance is (300+2) mod 256-ish — must be the wrapped value,
	// within 8 bits.
	d := c.Distance(0, 0)
	if d > 255 {
		t.Fatalf("distance exceeds 8 bits: %d", d)
	}
}

func TestCoarseTSFutilityCDF(t *testing.T) {
	c := bound(NewCoarseTS(1024, 1))
	rng := xrand.New(5)
	// Build a resident population with a spread of ages.
	for i := 0; i < 512; i++ {
		c.OnInsert(i, 0, Context{})
	}
	// Random hits keep some lines fresh.
	for i := 0; i < 20000; i++ {
		c.OnHit(rng.Intn(256), 0, Context{})
	}
	// Observe plenty of distances so the CDF calibrates, and force rebuilds.
	for i := 0; i < 3*histRebuild; i++ {
		c.FutilityRaw(rng.Intn(512), 0)
	}
	// Old, never-hit lines must have higher futility than just-hit lines.
	c.OnHit(0, 0, Context{})
	fresh := futilityOf(c, 0, 0)
	stale := futilityOf(c, 400, 0) // in 256..511, never hit after insert
	if stale <= fresh {
		t.Fatalf("stale futility %v not above fresh %v", stale, fresh)
	}
	if fresh < 0 || stale > 1 {
		t.Fatalf("futility out of range: %v %v", fresh, stale)
	}
}

// Property: exact-ranker futilities over a partition are exactly the set
// {1/M, 2/M, ..., 1} — a permutation of normalized ranks (strict total
// order, §III-A).
func TestQuickFutilityIsPermutationOfRanks(t *testing.T) {
	f := func(seed uint64, nLines uint8) bool {
		n := int(nLines%30) + 2
		r := NewExactLRU(64, 1)
		rng := xrand.New(seed)
		seq := uint64(0)
		for i := 0; i < n; i++ {
			r.OnInsert(i, 0, Context{Seq: seq})
			seq++
		}
		for i := 0; i < 100; i++ {
			r.OnHit(rng.Intn(n), 0, Context{Seq: seq})
			seq++
		}
		seen := make([]bool, n+1)
		for i := 0; i < n; i++ {
			f := futilityOf(r, i, 0)
			rank := int(f*float64(n) + 0.5)
			if rank < 1 || rank > n || seen[rank] {
				return false
			}
			seen[rank] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: raw ordering matches futility ordering within a partition for
// every ranker (schemes may use either interchangeably intra-partition).
func TestQuickRawMatchesFutilityOrder(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewExactLFU(32, 1, seed)
		rng := xrand.New(seed)
		for i := 0; i < 16; i++ {
			r.OnInsert(i, 0, Context{})
		}
		for i := 0; i < 200; i++ {
			r.OnHit(rng.Intn(16), 0, Context{})
		}
		for a := 0; a < 16; a++ {
			for b := 0; b < 16; b++ {
				fa, ra := r.FutilityRaw(a, 0)
				fb, rb := r.FutilityRaw(b, 0)
				if (fa < fb) != (ra < rb) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
