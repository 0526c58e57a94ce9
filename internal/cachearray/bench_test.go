package cachearray

import "testing"

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
	{"SetAssocLookup", setAssocLookupOp},
	{"ZCacheWalk", zcacheWalkOp},
}

// benchSink keeps the timed loops' results live.
var benchSink int

// setAssocLookupOp looks up, on a 16-way H3-indexed array half full, one
// resident address and then one absent one, in turn: the array's share of a
// hit and of a miss's first step.
func setAssocLookupOp(testing.TB) func(int) {
	arr := NewSetAssoc(benchLines, 16, IndexH3, benchSeed)
	// Even addresses go in while their set has a free way, to half the
	// capacity; the odd neighbour of each stays absent.
	var addrs []uint64
	for addr := uint64(2); len(addrs) < benchLines/2; addr += 2 {
		for _, line := range arr.Candidates(addr, nil) {
			if _, valid := arr.AddrOf(line); !valid {
				arr.Install(addr, line, nil)
				addrs = append(addrs, addr)
				break
			}
		}
	}
	next := 0
	return func(n int) {
		sink, i := 0, next
		for end := i + n; i < end; i++ {
			sink += arr.Lookup(addrs[i%len(addrs)] | uint64(i&1))
		}
		next, benchSink = i, sink
	}
}

// zcacheWalkOp is the replacement walk alone on a full Z4/52: up to 52
// nodes, about 76 H3 hashes and the bitmap dedup. Nothing is installed, so
// every walk sees the same contents.
func zcacheWalkOp(testing.TB) func(int) {
	z := NewZCache(benchLines, 4, 3, benchSeed)
	cands := make([]int, 0, z.MaxCandidates())
	for addr := uint64(1); addr <= 4*benchLines; addr++ {
		if z.Lookup(addr) < 0 {
			cands = z.Candidates(addr, cands[:0])
			z.Install(addr, cands[int(addr)%len(cands)], nil)
		}
	}
	next := uint64(0)
	return func(n int) {
		for range n {
			cands = z.Candidates(next|1<<40, cands[:0])
			next++
		}
		benchSink = len(cands)
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
