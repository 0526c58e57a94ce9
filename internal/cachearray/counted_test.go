//go:build fscount

package cachearray

import (
	"testing"

	"fscache/internal/stats"
	"fscache/internal/xrand"
)

// TestCounted pins the H3 evaluations of each array's share of an access,
// counted by the fscount build. An array hashes an address once per access
// and remembers it: a set-associative array's set index costs one evaluation
// a miss (Lookup's, which Candidates and Install's set check reuse) and one a
// hit; a zcache evaluates every way of an address in one table pass, so
// a one-level zcache, the skew-associative array, costs one a miss or a hit
// in any way, and a Z4/52 miss on a full array 17: Lookup's pass, which the
// walk's roots reuse, and one per resident the walk expands (4 + 12).
//
//	go test -tags fscount -run Counted ./internal/cachearray
func TestCounted(t *testing.T) {
	const lines, ways, addr, other = 1024, 8, 0x5eed, 0xfeed
	h3 := NewSetAssoc(lines, 16, IndexH3, 1)
	skew := NewZCache(lines, ways, 1, 1)
	z52, zaddr := fullZ52(t, lines)
	// miss installs addr in its last candidate, so a later hit on a
	// one-level zcache finds it in its last way.
	miss := func(a Array, addr uint64) func() {
		return func() {
			a.Lookup(addr)
			cands := a.Candidates(addr, nil)
			a.Install(addr, cands[len(cands)-1], nil)
		}
	}
	for _, row := range []struct {
		name string
		want int
		// setup runs uncounted before op: a hit row first looks up another
		// address, so that op's hash is not the one the array remembers.
		setup func()
		op    func()
	}{
		{"SetAssocH3Miss", 1, nil, miss(h3, addr)},
		{"SetAssocH3Hit", 1, func() { h3.Lookup(other) }, func() { h3.Lookup(addr) }},
		{"OneLevelZCacheMiss", 1, nil, miss(skew, addr)},
		{"OneLevelZCacheHitInLastWay", 1, func() { skew.Lookup(other) }, func() { skew.Lookup(addr) }},
		{"Z4_52MissOnFullArray", 17, nil, miss(z52, zaddr)},
	} {
		if row.setup != nil {
			row.setup()
		}
		before := stats.ReadCounted().H3
		row.op()
		if got := int(stats.ReadCounted().H3 - before); got != row.want {
			t.Errorf("%s: %d H3 evaluations, want %d", row.name, got, row.want)
		}
	}
}

// fullZ52 returns a Z4/52 zcache of lines lines with every line valid, and
// an absent address whose walk reaches all 52 candidates.
func fullZ52(t *testing.T, lines int) (*ZCache, uint64) {
	z := NewZCache(lines, 4, 3, 1)
	rng := xrand.New(2)
	for valid := 0; valid < lines; {
		a := rng.Uint64()
		if z.Lookup(a) >= 0 {
			continue
		}
		cands := z.Candidates(a, nil)
		victim := cands[0]
		for _, c := range cands {
			if _, ok := z.AddrOf(c); !ok {
				victim = c
				valid++
				break
			}
		}
		z.Install(a, victim, nil)
	}
	for i := 0; i < 100; i++ {
		a := rng.Uint64()
		if z.Lookup(a) < 0 && len(z.Candidates(a, nil)) == z.MaxCandidates() {
			return z, a
		}
	}
	t.Fatal("no absent address with a 52-candidate walk")
	return nil, 0
}
