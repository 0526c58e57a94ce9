package futility

import (
	"math"
	"testing"
)

// eagerCDF recomputes the CDF the way the pre-optimization code did at every
// rebuild: a full cumulative pass over the histogram with a float division
// per bin. The incremental snapshot (suffix refresh from dirtyLo + lazy
// memoized division) must reproduce these values bit-for-bit.
func eagerCDF(c *CoarseTS, part int) [256]float64 {
	var out [256]float64
	var cum uint64
	for d := 0; d < 256; d++ {
		cum += uint64(c.cdf[part].hist[d])
		out[d] = float64(cum) / float64(c.total[part])
	}
	return out
}

func checkCDF(t *testing.T, c *CoarseTS, part int, round string) {
	t.Helper()
	want := eagerCDF(c, part)
	for d := 0; d < 256; d++ {
		got := c.cdfAt(part, uint8(d))
		if math.Float64bits(got) != math.Float64bits(want[d]) {
			t.Fatalf("%s: part %d bin %d: incremental CDF %v != eager %v",
				round, part, d, got, want[d])
		}
	}
}

// TestCoarseCDFIncrementalMatchesEager drives the incremental CDF snapshot
// through skewed observation batches — including batches touching only high
// bins, so the prefix-reuse path (cum[lo-1] carried over) is exercised — and
// after every rebuild compares all 256 bins against an eager full recompute.
func TestCoarseCDFIncrementalMatchesEager(t *testing.T) {
	c := NewCoarseTS(64, 2)

	// Before any observation a partition has no tables at all, and once
	// calibrated the prior snapshot must read as the uniform distribution
	// float64(d+1)/256.
	for part := 0; part < 2; part++ {
		if c.cdf[part] != nil {
			t.Fatalf("part %d has CDF tables before its first futility query", part)
		}
		c.calibrate(part)
		for d := 0; d < 256; d++ {
			want := float64(d+1) / 256
			if got := c.cdfAt(part, uint8(d)); got != want {
				t.Fatalf("prior: part %d bin %d: got %v want %v", part, d, got, want)
			}
		}
	}

	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	batches := []struct {
		name string
		n    int
		bin  func() uint8 // distance generator for the batch
	}{
		{"full-range", histRebuild + 17, func() uint8 { return uint8(next()) }},
		{"high-only", histRebuild, func() uint8 { return 192 + uint8(next()%64) }},
		{"low-only", histRebuild, func() uint8 { return uint8(next() % 8) }},
		{"single-bin", histRebuild, func() uint8 { return 200 }},
	}
	for _, b := range batches {
		for part := 0; part < 2; part++ {
			for i := 0; i < b.n; i++ {
				c.observe(part, b.bin())
			}
			// Read a few bins mid-stream: memoized values from the previous
			// generation must not leak into the next one.
			_ = c.cdfAt(part, 0)
			_ = c.cdfAt(part, 200)
			c.rebuild(part)
			checkCDF(t, c, part, b.name)
		}
	}

	// Push partition 0 through the 1<<20 halving (dirtyLo resets to 0, every
	// bin changes) and verify the snapshot still matches an eager recompute.
	// Halving happens inside observe the moment total reaches the threshold,
	// so it shows up as the mass dropping between consecutive observations.
	halved := false
	prev := c.total[0]
	for i := 0; i < 1<<20+16 && !halved; i++ {
		c.observe(0, uint8(next()))
		halved = c.total[0] < prev
		prev = c.total[0]
	}
	if !halved {
		t.Fatal("halving did not fire")
	}
	c.rebuild(0)
	checkCDF(t, c, 0, "post-halving")
	// Partition 1 must be untouched by partition 0's halving.
	checkCDF(t, c, 1, "other-part-after-halving")
}

// TestCoarseDistanceLeavesCDFAlone pins the split the raw-only decision path
// rests on: Distance returns FutilityRaw's raw value and records nothing, the
// first FutilityRaw query is what gives a partition its tables, each query
// records its distance twice, and CheckInvariants takes a partition without
// tables only if it has recorded nothing.
func TestCoarseDistanceLeavesCDFAlone(t *testing.T) {
	c := NewCoarseTS(32, 2)
	for l := 0; l < 32; l++ {
		c.OnInsert(l, l&1, Context{})
	}
	for i := 0; i < 300; i++ {
		c.OnHit((i*5)%32, (i*5)%32&1, Context{})
	}
	for l := 0; l < 32; l++ {
		if d := c.Distance(l, l&1); d != uint64(tsDist(c.current[l&1], c.ts[l])) {
			t.Fatalf("line %d: Distance %d is not the timestamp distance", l, d)
		}
	}
	if c.Calibrated(0) || c.Calibrated(1) || c.total[0] != 0 || c.total[1] != 0 {
		t.Fatal("Distance recorded an observation")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("uncalibrated ranker: %v", err)
	}
	for l := 0; l < 32; l += 2 {
		d := c.Distance(l, 0)
		if _, raw := c.FutilityRaw(l, 0); d != raw {
			t.Fatalf("line %d: Distance %d, FutilityRaw's raw %d", l, d, raw)
		}
	}
	if !c.Calibrated(0) || c.Calibrated(1) || c.total[0] != 32 {
		t.Fatalf("after 16 FutilityRaw queries of partition 0: calibrated %v/%v, total %d, want 32 recordings",
			c.Calibrated(0), c.Calibrated(1), c.total[0])
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("half-calibrated ranker: %v", err)
	}
	c.total[1] = 1
	if c.CheckInvariants() == nil {
		t.Fatal("a partition with histogram mass and no tables passed CheckInvariants")
	}
}
