package futility

import (
	"math"
	"testing"

	"fscache/internal/xrand"
)

// coarseModel is one partition's CDF calibration written the plain way: a
// histogram halved at 2^20 observations and an eager CDF recomputed from it
// whenever histRebuild observations have accumulated. FutilityRaw must agree
// with it bit for bit, with two observations per query.
type coarseModel struct {
	hist         [256]uint32
	total, dirty uint32
	cdf          [256]float64
}

func newCoarseModel() *coarseModel {
	m := &coarseModel{}
	for d := range m.cdf {
		m.cdf[d] = float64(d+1) / 256 // the uniform prior
	}
	return m
}

func (m *coarseModel) observe(d uint8) {
	m.hist[d]++
	m.total++
	m.dirty++
	if m.total >= 1<<20 {
		m.total = 0
		for i := range m.hist {
			m.hist[i] /= 2
			m.total += m.hist[i]
		}
	}
}

func (m *coarseModel) query(d uint8) float64 {
	m.observe(d)
	if m.dirty >= histRebuild {
		m.dirty = 0
		if m.total > 0 {
			var cum uint64
			for i := range m.hist {
				cum += uint64(m.hist[i])
				m.cdf[i] = float64(cum) / float64(m.total)
			}
		}
	}
	f := m.cdf[d]
	m.observe(d)
	return f
}

// TestFutilityRawAgreementAcrossHalving drives a coarse ranker's FutilityRaw
// for enough queries to cross the 2^20 histogram-halving threshold and
// thousands of CDF rebuilds, against coarseModel: the ranker must return the
// model's quantile bit for bit at every query, and the histograms must agree
// at the end.
func TestFutilityRawAgreementAcrossHalving(t *testing.T) {
	const lines, parts = 64, 2
	c := bound(NewCoarseTS(lines, parts))
	models := []*coarseModel{newCoarseModel(), newCoarseModel()}
	rng := xrand.New(0xc0a2)

	for l := 0; l < lines; l++ {
		c.OnInsert(l, l%parts, Context{})
	}

	// Each iteration lands 2 observations on one of the 2 partitions, so
	// per-partition mass grows by ~1 per iteration; halving triggers at
	// 2^20 per-partition mass.
	const iters = 1_300_000
	halvings := 0
	prevTotal := c.total[0]
	for i := 0; i < iters; i++ {
		l := rng.Intn(lines)
		p := l % parts
		if rng.Bool(0.3) {
			c.OnHit(l, p, Context{})
		}
		d := c.Distance(l, p)
		want := models[p].query(uint8(d))
		f, raw := c.FutilityRaw(l, p)
		if math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("iter %d: quantile %v (bits %#x), model %v (bits %#x)",
				i, f, math.Float64bits(f), want, math.Float64bits(want))
		}
		if raw != d {
			t.Fatalf("iter %d: raw %d, distance %d", i, raw, d)
		}
		if c.total[0] < prevTotal {
			halvings++
		}
		prevTotal = c.total[0]
		if i%100_000 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
		}
	}
	if halvings == 0 {
		t.Fatal("test never crossed the histogram-halving threshold; raise iters")
	}
	for p, m := range models {
		if c.total[p] != m.total {
			t.Fatalf("partition %d: histogram mass %d, model %d", p, c.total[p], m.total)
		}
		for d := 0; d < 256; d++ {
			if c.cdf[p].hist[d] != m.hist[d] {
				t.Fatalf("partition %d bin %d: histogram %d, model %d", p, d, c.cdf[p].hist[d], m.hist[d])
			}
		}
	}
	t.Logf("agreement held across %d queries and %d halvings", iters, halvings)
}
