package recency

import (
	"testing"

	"fscache/internal/xrand"
)

// allocFreeOps are this package's measured operations on the //fs:allocfree
// path (DESIGN.md §10). Each setup warms its structure and returns op, where
// op(n) performs the next n operations in an inline loop. BenchmarkAllocFree
// times op(b.N), and TestAllocFree holds op(1) to 0 allocations.
var allocFreeOps = []struct {
	name  string
	setup func(testing.TB) func(n int)
}{
	{"Worst", worstOp},
}

// benchSink keeps the timed loops' results live.
var benchSink int32

// worstOp is the least-recent-line query (core's chooseFull once per
// partition, and the profiler's when its tag table is full) on a static
// index of 4096 lines that has been through 4 × 4096 random hits: the
// descent over word counts plus a trailing-zeros.
func worstOp(testing.TB) func(int) {
	const lines = 4096
	p := &New(1, lines)[0]
	slot := newSlots(lines)
	seq := uint64(0)
	for l := int32(0); l < lines; l++ {
		seq++
		p.Insert(l, seq, slot)
	}
	rng := xrand.New(0xbe7c4 ^ 0x1a0)
	for i := 0; i < 4*lines; i++ {
		seq++
		p.Hit(int32(rng.Intn(lines)), seq, slot)
	}
	return func(n int) {
		var sink int32
		for range n {
			sink += p.Worst()
		}
		benchSink = sink
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
