package ost

import (
	"testing"

	"fscache/internal/xrand"
)

const (
	treeKeys  = 4096
	benchSeed = 0xbe7c4
)

// allocFreeOps are this package's measured operations on the //fs:allocfree
// path (DESIGN.md §10). Each setup warms its structure and returns op, where
// op(n) performs the next n operations in an inline loop. BenchmarkAllocFree
// times op(b.N), and TestAllocFree holds op(1) to 0 allocations.
var allocFreeOps = []struct {
	name  string
	setup func(testing.TB) func(n int)
}{
	{"TreeInsertDelete", insertDeleteOp},
	{"TreeRank", rankOp},
	{"TreeSelect", selectOp},
}

// filledTree returns a treap of treeKeys pseudo-random keys, and the keys.
func filledTree() (*Tree, []Key) {
	t := New(benchSeed)
	rng := xrand.New(benchSeed ^ 0x7ee)
	keys := make([]Key, treeKeys)
	for i := range keys {
		keys[i] = Key{Primary: rng.Uint64(), Tie: uint64(i)}
		t.Insert(keys[i], int64(i))
	}
	return t, keys
}

// insertDeleteOp replaces a random key: a hit under LFU or OPT. The
// tree stays at treeKeys entries, so recycled nodes absorb every pair.
func insertDeleteOp(testing.TB) func(int) {
	t, keys := filledTree()
	rng := xrand.New(benchSeed ^ 0x1d)
	next := uint64(1) << 40
	return func(n int) {
		for range n {
			j := int(rng.Uint64() % treeKeys)
			t.Delete(keys[j])
			next++
			keys[j] = Key{Primary: next, Tie: uint64(j)}
			t.Insert(keys[j], int64(j))
		}
	}
}

// rankOp ranks one key of a static tree: one candidate's futility under
// LFU or OPT.
func rankOp(tb testing.TB) func(int) {
	t, keys := filledTree()
	next := 0
	return func(n int) {
		i := next
		for end := i + n; i < end; i++ {
			if _, ok := t.Rank(keys[i%treeKeys]); !ok {
				tb.Fatal("key missing")
			}
		}
		next = i
	}
}

// selectOp selects by rank in a static tree, as ost.Check's walk does.
func selectOp(testing.TB) func(int) {
	t, _ := filledTree()
	next := 0
	return func(n int) {
		i := next
		for end := i + n; i < end; i++ {
			t.Select(i%treeKeys + 1)
		}
		next = i
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
