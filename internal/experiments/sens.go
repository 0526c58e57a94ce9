package experiments

import (
	"io"

	"fscache/internal/core"
	"fscache/internal/futility"
)

// §VIII sensitivity studies: the feedback controller's two parameters —
// interval length l (paper default 16) and changing ratio Δα (paper
// default 2, the bit-shift case). Metrics: sizing error (MAD of partition
// 1's deviation) and associativity (partition 1's AEF), under a 2-partition
// mcf workload with skewed insertion pressure against an equal split.

// SensRow is one parameter point.
type SensRow struct {
	Interval int
	Delta    float64
	MAD      float64
	AEF      float64
	OccFrac  float64
}

// SensResult collects a sweep.
type SensResult struct {
	Scale Scale
	What  string
	Rows  []SensRow
}

// SensIntervals is the swept interval-length grid.
var SensIntervals = []int{4, 8, 16, 32, 64, 128}

// SensDeltas is the swept changing-ratio grid.
var SensDeltas = []float64{1.25, 1.5, 2, 4}

// SensInterval sweeps l with Δα = 2.
func SensInterval(scale Scale) SensResult {
	res := SensResult{Scale: scale, What: "interval"}
	for _, l := range SensIntervals {
		res.Rows = append(res.Rows, runSensCase(scale, core.FSFeedbackConfig{Interval: l, Delta: 2}))
	}
	return res
}

// SensDelta sweeps Δα with l = 16.
func SensDelta(scale Scale) SensResult {
	res := SensResult{Scale: scale, What: "delta"}
	for _, d := range SensDeltas {
		res.Rows = append(res.Rows, runSensCase(scale, core.FSFeedbackConfig{Interval: 16, Delta: d}))
	}
	return res
}

func runSensCase(scale Scale, fb core.FSFeedbackConfig) SensRow {
	lines := scale.AnalyticLines
	b, d, _ := insertionCell{
		spec: CacheSpec{
			Lines:          lines,
			Array:          ArrayRandom16,
			Rank:           futility.CoarseLRU,
			Scheme:         SchemeFS,
			Parts:          2,
			Seed:           seedStream(scale.Seed, "sens"),
			TrackDeviation: true,
			Feedback:       fb,
		},
		targets: splitTargets(lines, 0.5),
		insert:  []float64{0.75, 0.25},
		gens:    mcfPair(scale, "sens"),
		seed:    seedStream(scale.Seed, "sens-drv"),
	}.converge()
	d.measure(scale.Insertions / 2)
	return SensRow{
		Interval: fb.Interval,
		Delta:    fb.Delta,
		MAD:      b.Cache.Stats(0).Deviation.MAD(),
		AEF:      b.Cache.Stats(0).AEF(),
		OccFrac:  b.Cache.MeanOccupancy(0) / float64(lines/2),
	}
}

// Print renders the sweep.
func (r SensResult) Print(w io.Writer) {
	fprintf(w, "Sensitivity (%s scale): FS feedback %s sweep (2 mcf threads, I=0.75/0.25, equal split)\n",
		r.Scale.Name, r.What)
	fprintf(w, "%8s %6s %10s %8s %9s\n", "interval", "delta", "MAD", "AEF", "occ/tgt")
	for _, row := range r.Rows {
		fprintf(w, "%8d %6.2f %10.2f %8.3f %9.3f\n",
			row.Interval, row.Delta, row.MAD, row.AEF, row.OccFrac)
	}
}
