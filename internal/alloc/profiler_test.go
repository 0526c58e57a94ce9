package alloc

import (
	"math"
	"testing"

	"fscache/internal/recency"
	"fscache/internal/xrand"
)

// stackOracle is the Profiler's contract written out naively: the sampled
// addresses in an LRU stack of at most len(hist) entries, most recent first,
// searched linearly. A reuse found at depth i is a stack distance of i+1.
type stackOracle struct {
	stack                 []uint64
	hist                  []uint64
	far, sampled, offered uint64
}

func (o *stackOracle) touch(addr uint64, sampled bool) {
	o.offered++
	if !sampled {
		return
	}
	o.sampled++
	depth := 0
	for depth < len(o.stack) && o.stack[depth] != addr {
		depth++
	}
	switch {
	case depth < len(o.stack):
		o.hist[depth]++
	case len(o.stack) < len(o.hist):
		o.far++
		o.stack = append(o.stack, 0)
	default:
		o.far++
		depth-- // full: the least recent entry falls off the end
	}
	copy(o.stack[1:depth+1], o.stack[:depth])
	o.stack[0] = addr
}

// tracked returns the stack as a set.
func (o *stackOracle) tracked() map[uint64]bool {
	m := make(map[uint64]bool, len(o.stack))
	for _, a := range o.stack {
		m[a] = true
	}
	return m
}

// check compares every counter of p with the stack's and audits p's tag
// storage; phase and ref say where in the stream a failure happened.
func (o *stackOracle) check(t testing.TB, p *Profiler, phase, ref int) {
	t.Helper()
	if p.far != o.far || p.sampled != o.sampled || p.offered != o.offered {
		t.Fatalf("phase %d ref %d: far/sampled/offered = %d/%d/%d, stack says %d/%d/%d",
			phase, ref, p.far, p.sampled, p.offered, o.far, o.sampled, o.offered)
	}
	for d := range o.hist {
		if p.hist[d] != o.hist[d] {
			t.Fatalf("phase %d ref %d: hist[%d] = %d, stack says %d", phase, ref, d, p.hist[d], o.hist[d])
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("phase %d ref %d: %v", phase, ref, err)
	}
}

func (o *stackOracle) decay() {
	for i := range o.hist {
		o.hist[i] >>= 1
	}
	o.far >>= 1
	o.sampled >>= 1
	o.offered >>= 1
}

// checkAgainstStack drives a profiler and the naive stack with one stream of
// mixed locality (a hot set that fits the tags, a wider warm set that does
// not, a cold tail and a cyclic scan) in three phases with a Decay between,
// comparing every counter after every reference.
func checkAgainstStack(t *testing.T, maxTags int, shift uint) {
	p := NewProfiler(maxTags, shift, 1)
	o := &stackOracle{hist: make([]uint64, maxTags)}
	rng := xrand.New(42)
	hot := uint64(maxTags/2+1) << shift
	warm := uint64(maxTags*3) << shift
	scan, cold := uint64(0), uint64(0)
	evictions := 0
	for phase := 0; phase < 3; phase++ {
		for i := 0; i < 20000; i++ {
			var a uint64
			switch u := rng.Uint64() % 16; {
			case u < 8:
				a = rng.Uint64() % hot
			case u < 13:
				a = 1<<32 | rng.Uint64()%warm
			case u < 15:
				scan = (scan + 1) % (warm + uint64(phase))
				a = 2<<32 | scan
			default:
				cold++
				a = 3<<32 | cold
			}
			if int(p.idx.Live()) == maxTags && p.Sampled(a) {
				if _, tag := p.probe(a, p.hash(a)); tag < 0 {
					evictions++
				}
			}
			if got := p.Touch(a); got != p.Sampled(a) {
				t.Fatalf("Touch(%#x) = %v, Sampled says %v", a, got, !got)
			}
			o.touch(a, p.Sampled(a))
			o.check(t, p, phase, i)
		}
		p.Decay()
		o.decay()
	}
	if shift == 0 && p.sampled != p.offered {
		t.Fatalf("shift 0 must sample every address: %d of %d", p.sampled, p.offered)
	}
	if evictions < 1000 {
		t.Fatalf("stream reused a tag only %d times, want the bound exercised", evictions)
	}
	if int(p.idx.Live()) != maxTags {
		t.Fatalf("%d tags live after %d reuses, bound %d", p.idx.Live(), evictions, maxTags)
	}
}

// With sampleShift 0 every address is sampled and the profiler must be the
// exact Mattson profiler: the naive LRU stack, reference for reference.
func TestProfilerMatchesExactMRCAtShiftZero(t *testing.T) {
	checkAgainstStack(t, 64, 0)
	checkAgainstStack(t, 7, 0)
	checkAgainstStack(t, 1, 0)
}

// With sampling on, the profiler must be the same stack over the sampled
// subset of the stream.
func TestProfilerMatchesSampledStack(t *testing.T) {
	checkAgainstStack(t, 64, 3)
}

// Sampling must estimate the curve of the full stream: with a working-set
// cyclic/zipf-ish mix, the sampled estimate at several sizes should land
// near the shift-0 ground truth.
func TestProfilerSampledEstimatesFullCurve(t *testing.T) {
	const n = 400000
	rng := xrand.New(7)
	addrs := make([]uint64, n)
	for i := range addrs {
		// 4096-line hot set with an 1/8 chance of a 65536-line cold tail.
		if rng.Uint64()%8 == 0 {
			addrs[i] = (1 << 32) | (rng.Uint64() % 65536) // cold tail, rarely reused
		} else {
			addrs[i] = rng.Uint64() % 4096
		}
	}

	truth := NewProfiler(1<<17, 0, 99)
	est := NewProfiler(1<<13, 3, 99) // 1/8 sampling, resolves 1<<16 lines
	for _, a := range addrs {
		truth.Touch(a)
		est.Touch(a)
	}

	for _, lines := range []int{512, 1024, 4096, 16384} {
		want := truth.MissRatio(lines)
		got := est.MissRatio(lines)
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("sampled MissRatio(%d) = %.4f, ground truth %.4f (|Δ| > 0.03)", lines, got, want)
		}
	}
}

// The shadow-tag bound must hold no matter the footprint, and sizes past
// MaxLines must report Truncated with a saturated curve.
func TestProfilerBoundedMemoryAndTruncation(t *testing.T) {
	p := NewProfiler(64, 2, 3)
	for i := 0; i < 100000; i++ {
		p.Touch(uint64(i)) // pure cold stream, unbounded footprint
	}
	if p.idx.Live() > 64 {
		t.Fatalf("index holds %d tags, bound is 64", p.idx.Live())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := p.MaxLines(), 64<<2; got != want {
		t.Fatalf("MaxLines() = %d, want %d", got, want)
	}
	if p.Truncated(p.MaxLines()) {
		t.Fatalf("MaxLines() itself must be resolved, not truncated")
	}
	if !p.Truncated(p.MaxLines() + 1) {
		t.Fatalf("MaxLines()+1 must be truncated")
	}
	if p.MissRatio(p.MaxLines()) != p.MissRatio(1<<30) {
		t.Fatalf("curve must saturate past MaxLines")
	}
}

// CheckInvariants must fail a tag table whose halves do not fit its bound:
// one with a high half at 64 tags, whose entries all fit in 16 bits, and one
// without at 2^16 tags, whose largest entry (2^16, the last tag plus one)
// does not. The entries are copied over, so only the halves are wrong.
func TestProfilerCheckInvariantsDetectsTableHalves(t *testing.T) {
	for _, c := range []struct {
		tags, bound int32 // the profiler's, and the replacement table's
	}{{64, 1 << 16}, {1 << 16, 1<<16 - 1}} {
		p := NewProfiler(int(c.tags), 0, 3)
		for i := 0; i < 1000; i++ {
			p.Touch(uint64(i % 100))
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("%d tags: clean profiler: %v", c.tags, err)
		}
		table := recency.NewTable[uint16](p.table.Len(), c.bound)
		for i := range int32(table.Len()) {
			table.Put(i, p.table.At(i))
		}
		p.table = table
		if p.CheckInvariants() == nil {
			t.Errorf("%d tags: a table for entries up to %d went unnoticed", c.tags, c.bound)
		}
	}
}

// A reuse evicted from the bounded shadow must count as far, exactly like a
// maxTags-line shadow cache miss.
func TestProfilerEvictedReuseCountsFar(t *testing.T) {
	p := NewProfiler(4, 0, 5)
	for a := uint64(0); a < 8; a++ {
		p.Touch(a)
	}
	farBefore := p.far
	p.Touch(0) // distance 8 > 4 tags: tracked line was evicted
	if p.far != farBefore+1 {
		t.Fatalf("evicted reuse should add to far: %d -> %d", farBefore, p.far)
	}
	if p.HitsAt(1<<20) != 0 {
		t.Fatalf("no reuse within the shadow depth, HitsAt must be 0")
	}
}

// Decay halves every counter and keeps tags warm.
func TestProfilerDecay(t *testing.T) {
	p := NewProfiler(32, 0, 11)
	for i := 0; i < 3; i++ {
		for a := uint64(0); a < 8; a++ {
			p.Touch(a)
		}
	}
	tags := p.idx.Live()
	sampled, offered, hits := p.sampled, p.offered, p.HitsAt(8)
	p.Decay()
	if p.sampled != sampled/2 || p.offered != offered/2 {
		t.Fatalf("counters not halved: sampled %d->%d offered %d->%d", sampled, p.sampled, offered, p.offered)
	}
	if got := p.HitsAt(8); got > hits/2+8 || got < hits/4 {
		t.Fatalf("histogram not approximately halved: %d -> %d", hits, got)
	}
	if p.idx.Live() != tags {
		t.Fatalf("decay must keep shadow tags warm: %d -> %d", tags, p.idx.Live())
	}
	// Reuse after decay still resolves distances.
	before := p.HitsAt(8)
	p.Touch(0)
	if p.HitsAt(8) != before+1 {
		t.Fatalf("post-decay reuse not credited")
	}
}

// The allocator's one-pass curve is HitsAt at every grid point, including
// grids finer than the sampling step and points past the shadow depth.
func TestHitCurveMatchesHitsAt(t *testing.T) {
	for _, shift := range []uint{0, 3} {
		p := NewProfiler(128, shift, 77)
		rng := xrand.New(13)
		for i := 0; i < 50000; i++ {
			p.Touch(rng.Uint64() % 3000)
		}
		for _, chunk := range []int{1, 5, 64} {
			n := 2*p.MaxLines()/chunk + 1
			for c, got := range p.hitCurve(chunk, n) {
				if want := p.HitsAt(c * chunk); got != want {
					t.Fatalf("shift %d, chunk %d: curve[%d] = %d, HitsAt(%d) = %d", shift, chunk, c, got, c*chunk, want)
				}
			}
		}
	}
}

// Equal seeds and access sequences give bit-identical state.
func TestProfilerDeterministic(t *testing.T) {
	run := func() []float64 {
		p := NewProfiler(128, 2, 77)
		rng := xrand.New(13)
		for i := 0; i < 50000; i++ {
			p.Touch(rng.Uint64() % 3000)
		}
		return p.Curve([]int{1, 64, 256, 512})
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("curve diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestProfilerPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("maxTags", func() { NewProfiler(0, 3, 1) })
	mustPanic("shift", func() { NewProfiler(16, 32, 1) })
}
