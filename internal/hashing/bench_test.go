package hashing

import "testing"

// allocFreeOps are this package's measured operations on the //fs:allocfree
// path (DESIGN.md §10). Each setup warms its structure and returns op, where
// op(n) performs the next n operations in an inline loop. BenchmarkAllocFree
// times op(b.N), and TestAllocFree holds op(1) to 0 allocations.
var allocFreeOps = []struct {
	name  string
	setup func(testing.TB) func(n int)
}{
	// H3 hashes well-spread keys onto 4096 buckets: eight byte-sliced table
	// lookups XORed together.
	{"H3", func(testing.TB) func(int) {
		h := NewH3(0xbe7c4, 4096)
		return func(n int) {
			var sink uint64
			for i := range n {
				sink += h.Hash(uint64(i) * 0x9e3779b97f4a7c15)
			}
			benchSink = sink
		}
	}},
	// Family4 hashes the same keys under a four-member family in one table
	// pass and unpacks its four 12-bit lanes: a Z4 zcache's positions of one
	// address.
	{"Family4", func(testing.TB) func(int) {
		f := NewFamily(0xbe7c4, 4, 4096)
		sum := make([]uint64, f.Words())
		return func(n int) {
			var sink uint64
			for i := range n {
				f.Sum(uint64(i)*0x9e3779b97f4a7c15, sum)
				w := sum[0]
				sink += w&0xfff ^ w>>16&0xfff ^ w>>32&0xfff ^ w>>48&0xfff
			}
			benchSink = sink
		}
	}},
}

// benchSink keeps the timed loops' results live.
var benchSink uint64

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
