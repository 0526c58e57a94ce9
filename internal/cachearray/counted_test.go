//go:build fscount

package cachearray

import (
	"testing"

	"fscache/internal/hashing"
)

// TestCounted pins the H3 evaluations of each array's share of an access,
// counted by the fscount build: one per set index of an IndexH3 array and
// none under IndexXOR, so a miss (Lookup, Candidates, Install's set check)
// costs 3; and one per way position a zcache hashes, so a one-level zcache,
// the skew-associative array, costs 2W a miss (W in Lookup, W in
// Candidates, none in Install) and w+1 a hit in way w.
//
//	go test -tags fscount -run Counted ./internal/cachearray
func TestCounted(t *testing.T) {
	const lines, ways, addr = 1024, 8, 0x5eed
	h3 := NewSetAssoc(lines, 16, IndexH3, 1)
	xor := NewSetAssoc(lines, 16, IndexXOR, 1)
	skew := NewZCache(lines, ways, 1, 1)
	// miss installs addr in its last candidate, so a later hit on a
	// one-level zcache finds it in its last way.
	miss := func(a Array) func() {
		return func() {
			a.Lookup(addr)
			cands := a.Candidates(addr, nil)
			a.Install(addr, cands[len(cands)-1], nil)
		}
	}
	for _, row := range []struct {
		name string
		want int
		op   func()
	}{
		{"SetAssocH3Miss", 3, miss(h3)},
		{"SetAssocH3Hit", 1, func() { h3.Lookup(addr) }},
		{"SetAssocXORMiss", 0, miss(xor)},
		{"OneLevelZCacheMiss", 2 * ways, miss(skew)},
		{"OneLevelZCacheHitInLastWay", ways, func() { skew.Lookup(addr) }},
	} {
		before := hashing.H3Evals()
		row.op()
		if got := int(hashing.H3Evals() - before); got != row.want {
			t.Errorf("%s: %d H3 evaluations, want %d", row.name, got, row.want)
		}
	}
}
