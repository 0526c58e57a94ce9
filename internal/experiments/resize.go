package experiments

import (
	"io"
	"strconv"

	"fscache/internal/baselines"
	"fscache/internal/futility"
)

// Smooth resizing (§II-A, enforcement-scheme property 1): replacement-based
// schemes resize partitions "smoothly ... without incurring large overhead
// (no data flushing or migrating)". This experiment quantifies it: run two
// partitions at a 50/50 split, flip the targets to 75/25 mid-run, and
// measure (a) how many insertions each scheme needs to bring the growing
// partition within 5% of its new target and (b) the AEF during the
// transition — resizing must not cost associativity.

// ResizeRow is one scheme's transition measurement.
type ResizeRow struct {
	Scheme SchemeName
	// ConvergeInsertions is the insertions needed after the target flip for
	// partition 0 to first reach 95% of its new target (-1 if never).
	ConvergeInsertions int
	// TransitionAEF is partition 0's AEF measured during the transition
	// window.
	TransitionAEF float64
	// FinalFrac is partition 0's occupancy/new-target at the end.
	FinalFrac float64
}

// ResizeResult collects the comparison.
type ResizeResult struct {
	Scale Scale
	Rows  []ResizeRow
}

// Resize runs the transition for FS, PF, Vantage and PriSM.
func Resize(scale Scale) ResizeResult {
	res := ResizeResult{Scale: scale}
	for _, scheme := range []SchemeName{SchemeFS, SchemePF, SchemeVantage, SchemePriSM} {
		res.Rows = append(res.Rows, runResizeCase(scale, scheme))
	}
	return res
}

func runResizeCase(scale Scale, scheme SchemeName) ResizeRow {
	lines := scale.AnalyticLines
	// Vantage manages all but its unmanaged region; give it proportional
	// targets.
	cap := lines
	if scheme == SchemeVantage {
		cap = baselines.VantageManagedLines(lines)
	}
	after := splitTargets(cap, 0.75)
	b, d, _ := insertionCell{
		spec: CacheSpec{
			Lines:  lines,
			Array:  ArrayRandom16,
			Rank:   futility.CoarseLRU,
			Scheme: scheme,
			Parts:  2,
			Seed:   seedStream(scale.Seed, "resize"+string(scheme)),
		},
		targets: splitTargets(cap, 0.5),
		insert:  []float64{0.5, 0.5},
		gens:    mcfPair(scale, "resize"),
		seed:    seedStream(scale.Seed, "resize-drv"),
	}.converge()

	// Flip the allocation and watch partition 0 grow.
	b.SetTargets(after)
	b.Cache.ResetStats()
	row := ResizeRow{Scheme: scheme, ConvergeInsertions: -1}
	budget := scale.Insertions / 4
	threshold := after[0] * 95 / 100
	for i := 0; i < budget; i++ {
		d.insert()
		if row.ConvergeInsertions < 0 && b.Cache.Sizes()[0] >= threshold {
			row.ConvergeInsertions = i + 1
		}
	}
	row.TransitionAEF = b.Cache.Stats(0).AEF()
	row.FinalFrac = float64(b.Cache.Sizes()[0]) / float64(after[0])
	return row
}

// Print renders the comparison.
func (r ResizeResult) Print(w io.Writer) {
	fprintf(w, "Resize (%s scale): 50/50 → 75/25 target flip, equal insertion pressure\n", r.Scale.Name)
	fprintf(w, "%-10s %12s %14s %10s\n", "scheme", "conv.inserts", "transitionAEF", "final/tgt")
	for _, row := range r.Rows {
		conv := "never"
		if row.ConvergeInsertions >= 0 {
			conv = strconv.Itoa(row.ConvergeInsertions)
		}
		fprintf(w, "%-10s %12s %14.3f %10.3f\n", row.Scheme, conv, row.TransitionAEF, row.FinalFrac)
	}
}
