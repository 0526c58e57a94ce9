package futility

import (
	"testing"

	"fscache/internal/xrand"
)

const (
	benchLines = 4096
	benchSeed  = 0xbe7c4
)

// allocFreeOps are this package's measured operations on the //fs:allocfree
// path (DESIGN.md §10). Each setup warms its structure and returns op, where
// op(n) performs the next n operations in an inline loop. BenchmarkAllocFree
// times op(b.N), and TestAllocFree holds op(1) to 0 allocations.
var allocFreeOps = []struct {
	name  string
	setup func(testing.TB) func(n int)
}{
	{"ExactLRUHit", exactLRUHitOp},
	{"ExactLRURank", exactLRURankOp},
	{"CoarseOnHit", coarseOnHitOp},
	{"CoarseDistance", coarseDistanceOp},
	{"CoarseFutility", coarseFutilityOp},
}

// benchSink keeps the timed loops' results live.
var benchSink uint64

// filledExactLRU returns a one-partition ranker that has been through enough
// hits in a fixed pseudo-random order to reach its final capacity, so the
// timed loops compact but never grow, and the last Seq it saw.
func filledExactLRU() (*ExactLRU, uint64) {
	r := NewExactLRU(benchLines, 1)
	seq := uint64(0)
	for l := 0; l < benchLines; l++ {
		seq++
		r.OnInsert(l, 0, Context{Seq: seq})
	}
	rng := xrand.New(benchSeed ^ 0x1a0)
	for i := 0; i < 4*benchLines; i++ {
		seq++
		r.OnHit(rng.Intn(benchLines), 0, Context{Seq: seq})
	}
	return r, seq
}

// exactLRUHitOp is the recency index's hit path: two liveness-bit flips, each
// with its word-count updates, and a compaction every cap − 4096 hits.
func exactLRUHitOp(testing.TB) func(int) {
	r, last := filledExactLRU()
	rng := xrand.New(benchSeed ^ 0x1a1)
	return func(n int) {
		seq := last
		for range n {
			seq++
			r.OnHit(rng.Intn(benchLines), 0, Context{Seq: seq})
		}
		last = seq
	}
}

// exactLRURankOp is the per-candidate rank query of the miss path: a masked
// popcount plus a prefix sum over word counts.
func exactLRURankOp(testing.TB) func(int) {
	r, _ := filledExactLRU()
	next := 0
	return func(n int) {
		var sink uint64
		i := next
		for end := i + n; i < end; i++ {
			_, raw := r.FutilityRaw(i%benchLines, 0)
			sink += raw
		}
		next, benchSink = i, sink
	}
}

// filledCoarse returns a two-partition coarse ranker holding every line. Its
// ops visit the lines in turn, each with its partition.
func filledCoarse() *CoarseTS {
	c := bound(NewCoarseTS(benchLines, 2))
	for l := 0; l < benchLines; l++ {
		c.OnInsert(l, l&1, Context{Seq: uint64(l)})
	}
	return c.CoarseTS
}

// coarseOnHitOp is the hit-path retag: partition tick + timestamp store.
func coarseOnHitOp(testing.TB) func(int) {
	c, next := filledCoarse(), 0
	return func(n int) {
		i := next
		for end := i + n; i < end; i++ {
			l := i % benchLines
			c.OnHit(l, l&1, Context{})
		}
		next = i
	}
}

// coarseDistanceOp is the bare 8-bit timestamp subtraction the raw-only FS
// decision pays per candidate.
func coarseDistanceOp(testing.TB) func(int) {
	c, next := filledCoarse(), 0
	return func(n int) {
		var sink uint64
		i := next
		for end := i + n; i < end; i++ {
			l := i % benchLines
			sink += c.Distance(l, l&1)
		}
		next, benchSink = i, sink
	}
}

// coarseFutilityOp is the self-calibrating query: the line's position in its
// partition's empirical CDF, and its distance, recorded twice.
func coarseFutilityOp(testing.TB) func(int) {
	c, next := filledCoarse(), 0
	return func(n int) {
		var sink float64
		i := next
		for end := i + n; i < end; i++ {
			l := i % benchLines
			f, _ := c.FutilityRaw(l, l&1)
			sink += f
		}
		next, benchSink = i, uint64(sink)
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
