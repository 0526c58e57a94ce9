package experiments

import (
	"io"

	"fscache/internal/futility"
)

// Fig. 4: associativity CDFs of FS versus PF on a 2 MB random-candidates
// cache (R = 16, the Uniformity Assumption realized) running two mcf
// threads with equal insertion rates (I₁ = I₂ = 0.5) and target splits
// S₁/S₂ ∈ {9/1, 6/4}. FS uses the fixed scaling factors of Equation (1);
// the paper's observations: the unscaled big partition keeps full
// associativity, the scaled small partition degrades mildly, and PF
// degrades both (badly for the small one).

// Fig4Row is one (scheme, split, partition) associativity measurement.
type Fig4Row struct {
	Scheme SchemeName
	S1     float64
	Part   int
	Size   float64 // measured mean size fraction
	AEF    float64
	Alpha  float64 // FS scaling factor of the partition (1 for PF)
}

// Fig4Result collects the comparison.
type Fig4Result struct {
	Scale Scale
	Rows  []Fig4Row
}

// Fig4 runs the comparison.
func Fig4(scale Scale) Fig4Result {
	res := Fig4Result{Scale: scale}
	insert := []float64{0.5, 0.5}
	for _, s1 := range []float64{0.9, 0.6} {
		sizes := []float64{s1, 1 - s1}
		for _, scheme := range []SchemeName{SchemeFSFixed, SchemePF} {
			res.Rows = append(res.Rows, runFig4Case(scale, scheme, insert, sizes)...)
		}
	}
	return res
}

func runFig4Case(scale Scale, scheme SchemeName, insert, sizes []float64) []Fig4Row {
	lines := scale.AnalyticLines
	b, d, alphas := insertionCell{
		spec: CacheSpec{
			Lines:  lines,
			Array:  ArrayRandom16,
			Rank:   futility.LRU,
			Scheme: scheme,
			Parts:  2,
			Seed:   seedStream(scale.Seed, "fig4"+string(scheme)),
		},
		targets: splitTargets(lines, sizes[0]),
		insert:  insert,
		gens:    mcfPair(scale, "fig4"),
		seed:    seedStream(scale.Seed, "fig4-drv"),
		split:   sizes,
	}.converge()
	d.measure(scale.Insertions)
	rows := make([]Fig4Row, 2)
	for p := range rows {
		st := b.Cache.Stats(p)
		rows[p] = Fig4Row{
			Scheme: scheme,
			S1:     sizes[0],
			Part:   p,
			Size:   b.Cache.MeanOccupancy(p) / float64(lines),
			AEF:    st.AEF(),
			Alpha:  1,
		}
		if alphas != nil {
			rows[p].Alpha = alphas[p]
		}
	}
	return rows
}

// Print renders one row per (scheme, split, partition).
func (r Fig4Result) Print(w io.Writer) {
	fprintf(w, "Fig.4 (%s scale): FS vs PF associativity, random-candidates cache R=16, two mcf threads, I1=I2\n", r.Scale.Name)
	fprintf(w, "%-10s %6s %6s %8s %10s %8s\n", "scheme", "S1", "part", "alpha", "meansize", "AEF")
	for _, row := range r.Rows {
		fprintf(w, "%-10s %6.2f %6d %8.3f %10.3f %8.3f\n",
			row.Scheme, row.S1, row.Part, row.Alpha, row.Size, row.AEF)
	}
}
