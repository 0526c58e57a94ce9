package faultinject

import (
	"testing"

	"fscache/internal/trace"
)

// seqGenerator yields consecutive fresh lines, so every fault the wrapper
// introduces is visible in the output stream.
type seqGenerator struct{ next uint64 }

func (g *seqGenerator) Next() trace.Access {
	g.next++
	return trace.Access{Addr: g.next}
}

func TestFaultyGeneratorPassthroughWhenZero(t *testing.T) {
	g := NewFaultyGenerator(&seqGenerator{}, 42, TraceFaults{})
	for i := 1; i <= 1000; i++ {
		if a := g.Next(); a.Addr != uint64(i) {
			t.Fatalf("record %d: addr %d, zero-rate wrapper must pass through", i, a.Addr)
		}
	}
	if g.Dropped+g.Duplicated+g.Corrupted != 0 {
		t.Fatal("zero-rate wrapper counted faults")
	}
}

func TestFaultyGeneratorDropDupCorrupt(t *testing.T) {
	const n = 20000
	g := NewFaultyGenerator(&seqGenerator{}, 42, TraceFaults{Drop: 0.1, Dup: 0.1, Corrupt: 0.1})
	dups := 0
	var prev uint64
	for i := 0; i < n; i++ {
		a := g.Next()
		if a.Addr == prev {
			dups++
		}
		prev = a.Addr
	}
	check := func(name string, got uint64) {
		// ±40% around the 10% expectation — loose enough to never flake on
		// a fixed seed, tight enough to catch a dead fault path.
		if got < n/10*6/10 || got > n/10*14/10 {
			t.Fatalf("%s = %d out of %d records, want ≈%d", name, got, n, n/10)
		}
	}
	check("Dropped", g.Dropped)
	check("Duplicated", g.Duplicated)
	check("Corrupted", g.Corrupted)
	if uint64(dups) < g.Duplicated {
		t.Fatalf("saw %d back-to-back repeats but counter says %d duplicates", dups, g.Duplicated)
	}
}

func TestFaultyGeneratorDeterministic(t *testing.T) {
	mk := func() *FaultyGenerator {
		return NewFaultyGenerator(&seqGenerator{}, 7, TraceFaults{Drop: 0.2, Dup: 0.2, Corrupt: 0.2})
	}
	a, b := mk(), mk()
	for i := 0; i < 5000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("record %d diverged: %+v vs %+v", i, x, y)
		}
	}
	if a.Dropped != b.Dropped || a.Duplicated != b.Duplicated || a.Corrupted != b.Corrupted {
		t.Fatal("same-seed fault counters diverged")
	}
}

func TestFaultyGeneratorValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"nil inner", func() { NewFaultyGenerator(nil, 1, TraceFaults{}) }},
		{"drop = 1", func() { NewFaultyGenerator(&seqGenerator{}, 1, TraceFaults{Drop: 1}) }},
		{"negative", func() { NewFaultyGenerator(&seqGenerator{}, 1, TraceFaults{Dup: -0.1}) }},
		{"set drop=1", func() { NewFaultyGenerator(&seqGenerator{}, 1, TraceFaults{}).SetRates(TraceFaults{Drop: 1}) }},
	} {
		name, fn := tc.name, tc.fn
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
