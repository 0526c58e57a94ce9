package futility

import (
	"math"
	"testing"
)

// eagerCDF recomputes the CDF from the partition's live histogram: a
// cumulative pass with a float division per bin.
func eagerCDF(c *CoarseTS, part int) [256]float64 {
	var out [256]float64
	var cum uint64
	for d := 0; d < 256; d++ {
		cum += uint64(c.cdf[part].hist[d])
		out[d] = float64(cum) / float64(c.total[part])
	}
	return out
}

func checkCDF(t *testing.T, c *CoarseTS, part int, want [256]float64, round string) {
	t.Helper()
	for d := 0; d < 256; d++ {
		if got := c.cdf[part].cdf[d]; math.Float64bits(got) != math.Float64bits(want[d]) {
			t.Fatalf("%s: part %d bin %d: CDF %v, want %v", round, part, d, got, want[d])
		}
	}
}

// TestCoarseCDFIncrementalMatchesEager pins the coarse CDF's life cycle: a
// calibrated partition starts on the uniform prior, its values change only
// at a rebuild, every bin after a rebuild bit-equals cumulative count over
// total, and the 1<<20 halving keeps that true.
func TestCoarseCDFIncrementalMatchesEager(t *testing.T) {
	c := NewCoarseTS(64, 2)

	// Before any observation a partition has no tables at all, and once
	// calibrated it reads as the uniform distribution float64(d+1)/256.
	var prior [256]float64
	for d := range prior {
		prior[d] = float64(d+1) / 256
	}
	for part := 0; part < 2; part++ {
		if c.cdf[part] != nil {
			t.Fatalf("part %d has CDF tables before its first futility query", part)
		}
		c.calibrate(part)
		checkCDF(t, c, part, prior, "prior")
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
			before := c.cdf[part].cdf
			for i := 0; i < b.n; i++ {
				c.observe(part, b.bin())
			}
			// Recording moves the histogram, never the CDF.
			checkCDF(t, c, part, before, b.name+" before rebuild")
			c.rebuild(part)
			checkCDF(t, c, part, eagerCDF(c, part), b.name)
		}
	}

	// Push partition 0 through the 1<<20 halving (every bin changes) and
	// verify the rebuilt CDF still matches an eager recompute. Halving
	// happens inside observe the moment total reaches the threshold, so it
	// shows up as the mass dropping between consecutive observations.
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
	checkCDF(t, c, 0, eagerCDF(c, 0), "post-halving")
	// Partition 1 must be untouched by partition 0's halving.
	checkCDF(t, c, 1, eagerCDF(c, 1), "other-part-after-halving")
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCoarseCheckInvariantsDetects damages a calibrated partition's tables
// one way at a time; CheckInvariants must report each.
func TestCoarseCheckInvariantsDetects(t *testing.T) {
	cases := []struct {
		name   string
		damage func(c *CoarseTS)
	}{
		{"decreasing bin", func(c *CoarseTS) { c.cdf[0].cdf[10] = c.cdf[0].cdf[9] / 2 }},
		{"last bin not 1", func(c *CoarseTS) { c.cdf[0].cdf[255] = 0.999 }},
		{"mass mismatch", func(c *CoarseTS) { c.cdf[0].hist[3]++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoarseTS(16, 2)
			for l := 0; l < 16; l++ {
				c.OnInsert(l, 0, Context{})
				c.FutilityRaw(l, 0)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("undamaged ranker: %v", err)
			}
			tc.damage(c)
			if c.CheckInvariants() == nil {
				t.Fatalf("CheckInvariants missed %s", tc.name)
			}
		})
	}
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
