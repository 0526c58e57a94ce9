package experiments

import (
	"io"

	"fscache/internal/analytic"
	"fscache/internal/futility"
	"fscache/internal/trace"
)

// Fig. 5: size-deviation distributions of FS versus PF on the analytical
// cache, equal target split, insertion-rate splits I₁ ∈ {0.9, 0.5} (the
// paper's 9/1 and 5/5). PF's deviation is near zero (MAD < 1); FS trades a
// bounded random-walk deviation (worst at I₁ = 0.5, where I₁(1−I₁) peaks)
// for its associativity preservation. The birth–death model's predicted
// MAD is reported alongside the measurement.

// Fig5Row is one (scheme, I₁) sizing measurement for partition 1.
type Fig5Row struct {
	Scheme SchemeName
	I1     float64
	MAD    float64
	// ModelMAD is the analytic birth–death prediction (FS rows only).
	ModelMAD float64
	// DevValues/DevCDF give P(|deviation| ≤ v).
	DevValues []int
	DevCDF    []float64
}

// Fig5Result collects the comparison.
type Fig5Result struct {
	Scale Scale
	Rows  []Fig5Row
}

// Fig5 runs the comparison.
func Fig5(scale Scale) Fig5Result {
	res := Fig5Result{Scale: scale}
	for _, i1 := range []float64{0.9, 0.5} {
		for _, scheme := range []SchemeName{SchemeFSFixed, SchemePF} {
			res.Rows = append(res.Rows, runFig5Case(scale, scheme, i1))
		}
	}
	return res
}

func runFig5Case(scale Scale, scheme SchemeName, i1 float64) Fig5Row {
	lines := scale.AnalyticLines
	_, d, alphas := insertionCell{
		spec: CacheSpec{
			Lines:  lines,
			Array:  ArrayRandom16,
			Rank:   futility.LRU,
			Scheme: scheme,
			Parts:  2,
			Seed:   seedStream(scale.Seed, "fig5"+string(scheme)),
		},
		targets: splitTargets(lines, 0.5),
		insert:  []float64{i1, 1 - i1},
		// Pure insertion process: fresh lines, no reuse — sizing dynamics
		// only.
		gens:  []trace.Generator{newFreshLineGenerator(0), newFreshLineGenerator(1)},
		seed:  seedStream(scale.Seed, "fig5-drv"),
		split: []float64{0.5, 0.5},
	}.converge()
	row := Fig5Row{Scheme: scheme, I1: i1}
	if alphas != nil {
		model := &analytic.SizingModel{
			TotalLines: lines,
			Insert1:    i1,
			Alpha2:     alphas[1] / alphas[0],
			R:          16,
		}
		// The model normalizes α₁ = 1; when the solver scaled partition 1,
		// rescale so the model's unscaled partition matches.
		_, mad, _ := model.DeviationStats(lines/2, lines/8, nil)
		row.ModelMAD = mad
	}
	dev := d.measure(scale.Insertions)
	row.MAD = dev.MAD()
	row.DevValues, row.DevCDF = dev.AbsCDF()
	return row
}

// Print renders one row per (scheme, I₁) with MAD and deviation quantiles.
func (r Fig5Result) Print(w io.Writer) {
	fprintf(w, "Fig.5 (%s scale): size deviation of partition 1, equal split\n", r.Scale.Name)
	fprintf(w, "%-10s %6s %10s %10s %8s %8s\n", "scheme", "I1", "MAD", "modelMAD", "p50", "p99")
	for _, row := range r.Rows {
		p50 := quantileOf(row.DevValues, row.DevCDF, 0.5)
		p99 := quantileOf(row.DevValues, row.DevCDF, 0.99)
		fprintf(w, "%-10s %6.2f %10.2f %10.2f %8d %8d\n",
			row.Scheme, row.I1, row.MAD, row.ModelMAD, p50, p99)
	}
}

func quantileOf(values []int, cdf []float64, q float64) int {
	for i, c := range cdf {
		if c >= q {
			return values[i]
		}
	}
	if len(values) == 0 {
		return 0
	}
	return values[len(values)-1]
}
