package difftest

import (
	"fscache/internal/oracle"
	"fscache/internal/xrand"
)

// Generate derives a random scenario from a seed. The same seed always
// yields the same scenario, so a failing seed printed by TestDifferential is
// a complete reproducer on its own. Generate feeds that fixed sweep and the
// regression corpus (TestCorpus); open-ended search is FuzzAccess's, over
// the same byte format.
//
// The generator biases toward the regimes where the models can disagree:
// working sets sized near the cache so evictions are frequent, address
// reuse high enough that futility ranks matter (pure cold misses would
// exercise only the insertion path), a shared low address range so
// partitions collide on lines, and occasional resizes and alpha forcing to
// stress the feedback controller's counter resets.
func Generate(seed uint64) *Scenario {
	rng := xrand.New(xrand.Mix64(seed) ^ 0xd1ff7e57)
	s := &Scenario{
		LinesCode:    uint8(rng.Intn(3)),
		Array:        ArrayKind(rng.Intn(int(numArrayKinds))),
		ArraySeed:    uint8(rng.Uint64()),
		Ranking:      oracle.Ranking(rng.Intn(3)),
		Scheme:       oracle.SchemeKind(rng.Intn(3)),
		Parts:        1 + rng.Intn(4),
		IntervalCode: uint8(rng.Intn(3)),
		FeedbackBits: uint8(rng.Intn(4)),
	}
	for p := 0; p < s.Parts; p++ {
		s.InitW = append(s.InitW, uint8(rng.Intn(8)))
		if s.Scheme == oracle.Fixed {
			s.AlphaQ = append(s.AlphaQ, uint8(rng.Intn(64)))
		}
	}

	// Per-partition working sets: base offset plus a span around the
	// partition's fair share of the cache, so each partition's reuse
	// distance straddles its allocation. span and base fit a uint16 op key.
	lines := s.Lines()
	span := make([]int, s.Parts)
	base := make([]int, s.Parts)
	for p := 0; p < s.Parts; p++ {
		fair := lines / s.Parts
		span[p] = fair/2 + rng.Intn(fair*3+4) // ~[fair/2, 3.5·fair)
		base[p] = (p + 1) * 4096
	}
	// sharedP is the probability an access lands in the cross-partition
	// collision range [0, 64) instead of the partition's private set.
	sharedP := rng.Float64() * 0.3

	// Demotion-heavy bias for Vantage scenarios: give one partition a
	// minimal target weight but a working set spanning most of the cache,
	// so it runs far over its allocation, its aperture opens, and demotions
	// into the unmanaged region dominate the replacement traffic — the
	// regime the demotion-accounting fix in core.(*Cache).demote is locked
	// against.
	if s.Scheme == oracle.Vantage {
		hot := rng.Intn(s.Parts)
		s.InitW[hot] = 0
		span[hot] = lines/2 + rng.Intn(lines)
	}

	nOps := 64 + rng.Intn(448)
	zipf := xrand.NewZipf(rng, 0.8, 1<<14)
	for i := 0; i < nOps; i++ {
		r := rng.Float64()
		switch {
		case r < 0.01 && s.Parts > 1:
			w := make([]uint8, s.Parts)
			for p := range w {
				w[p] = uint8(rng.Intn(8))
			}
			s.Ops = append(s.Ops, Op{Kind: OpResize, W: w})
		case r < 0.02 && s.Scheme == oracle.Feedback:
			s.Ops = append(s.Ops, Op{
				Kind: OpForceAlpha,
				Part: rng.Intn(s.Parts),
				AQ:   uint8(rng.Intn(16)),
			})
		default:
			p := rng.Intn(s.Parts)
			var k int
			if rng.Float64() < sharedP {
				k = rng.Intn(64)
			} else {
				k = base[p] + zipf.Next()%span[p]
			}
			s.Ops = append(s.Ops, Op{Kind: OpAccess, Part: p, K: uint16(k)})
		}
	}
	s.normalize()
	return s
}
