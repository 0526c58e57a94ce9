package futility_test

import (
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// The exact reference of bench/'s sim-fs-coarse-32p cache (32768 lines, 16
// ways, H3 indexing, coarse timestamps, FS feedback, 32 partitions) keeps its
// recency storage in the three arrays of one set, within DESIGN §10's bound
// of 11 bytes a line, after a fill, a target shift that moves half of every
// even partition's share to the odd one after it, and a shift back. The sizes
// are the arrays' capacities, whole pages from one page up, read from the
// slices, not from the allocator. At seed 7 they are 301 184 bytes, 9.19 a
// line (2.1 slots).
func TestCoarse32pReferenceStorage(t *testing.T) {
	const lines, parts, share = 32768, 32, 32768 / 32
	ref := futility.NewExactLRU(lines, parts)
	c := core.New(core.Config{
		Array:     cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, 1),
		Ranker:    futility.NewCoarseTS(lines, parts),
		Reference: ref,
		Scheme:    core.NewFSFeedback(parts, core.FSFeedbackConfig{}),
		Parts:     parts,
	})
	rng := xrand.New(7)
	run := func(targets func(p int) int) {
		tg := make([]int, parts)
		for p := range tg {
			tg[p] = targets(p)
		}
		c.SetTargets(tg)
		for i := 0; i < 4*lines; i++ {
			p := rng.Intn(parts)
			c.Access(uint64(p)<<32|rng.Uint64n(2*share), p, trace.NoNextUse)
		}
	}
	equal := func(int) int { return share }
	run(equal)
	run(func(p int) int { return share/2 + p%2*share }) // ½ and 1½ shares
	run(equal)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err) // includes every order's placement in the one set
	}
	words, nodes, slots := ref.Orders()[0].Storage()
	if bytes := 8*words + 4*nodes + 4*slots; bytes > 11*lines {
		t.Errorf("%d words, %d nodes and %d slot entries: %d bytes, %.2f a line", words, nodes, slots, bytes, float64(bytes)/lines)
	}
}
