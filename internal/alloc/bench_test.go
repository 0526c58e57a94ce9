package alloc

import (
	"testing"

	"fscache/internal/xrand"
)

const benchSeed = 0xbe7c4

// allocFreeOps are this package's measured operations on the //fs:allocfree
// path (DESIGN.md §10). Each setup warms its structure and returns op, where
// op(n) performs the next n operations in an inline loop. BenchmarkAllocFree
// times op(b.N), and TestAllocFree holds op(1) to 0 allocations.
var allocFreeOps = []struct {
	name  string
	setup func(testing.TB) func(n int)
}{
	// One exact (shift 0) Mattson observation over 8192 lines: a probe of the
	// open-addressed tag table, then a rank and a hit, or a worst-tag reuse
	// with its backward-shift removal.
	{"ProfilerTouch", profilerTouch(0)},
	// One reference offered to a 1/8-sampling profiler over 65536 lines: the
	// sampling hash always, the observation one time in eight.
	{"ProfilerTouchSampled", profilerTouch(3)},
}

// profilerTouch returns a setup for Touch on a profiler of 4096 tags at the
// given sampling shift, over a uniform footprint of twice the lines it tracks
// at once: about half the sampled references reuse a tracked line and half
// reuse the least recent tag. The warm-up fills the tag table and takes the
// index to its final capacity.
func profilerTouch(shift uint) func(testing.TB) func(int) {
	return func(testing.TB) func(int) {
		const tags = 4096
		p := NewProfiler(tags, shift, benchSeed)
		lines := uint64(2*tags) << shift
		rng := xrand.New(benchSeed ^ 0xa110c)
		for i := uint64(0); i < 4*lines; i++ {
			p.Touch(rng.Uint64() % lines)
		}
		return func(n int) {
			for range n {
				p.Touch(rng.Uint64() % lines)
			}
		}
	}
}

func BenchmarkAllocFree(b *testing.B) {
	for _, o := range allocFreeOps {
		b.Run(o.name, func(b *testing.B) {
			op := o.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			op(b.N)
		})
	}
}

func TestAllocFree(t *testing.T) {
	for _, o := range allocFreeOps {
		t.Run(o.name, func(t *testing.T) {
			op := o.setup(t)
			if n := testing.AllocsPerRun(100, func() { op(1) }); n != 0 {
				t.Errorf("%v allocations per warm op", n)
			}
		})
	}
}
