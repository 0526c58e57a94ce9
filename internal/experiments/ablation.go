package experiments

import (
	"io"
	"math"

	"fscache/internal/futility"
	"fscache/internal/trace"
)

// Reproduction-specific ablations (DESIGN.md §7):
//
// A1 — what the practical design gives up: FS with exact futility and
// analytically solved fixed α versus the feedback design on coarse 8-bit
// timestamps, on the same workload.
//
// A2 — associativity versus candidate count R: PF collapses as partitions
// approach R while FS's associativity is insensitive to partition count
// (§IV-C), swept over random-candidates caches with varying R.

// AblationFSRow compares one scheme variant.
type AblationFSRow struct {
	Variant string
	AEF0    float64
	AEF1    float64
	// OccErr is mean |occupancy − target| / target over both partitions.
	OccErr float64
}

// AblationFSResult is the A1 comparison.
type AblationFSResult struct {
	Scale Scale
	Rows  []AblationFSRow
}

// AblationFS runs A1: two mcf threads, I = 0.5/0.5, targets 0.7/0.3.
func AblationFS(scale Scale) AblationFSResult {
	res := AblationFSResult{Scale: scale}
	lines := scale.AnalyticLines
	targets := splitTargets(lines, 0.7)
	for _, variant := range []struct {
		name   string
		scheme SchemeName
		rank   futility.Kind
	}{
		{"fs-analytic(exact)", "fs-fixed", futility.LRU},
		{"fs-feedback(coarse)", SchemeFS, futility.CoarseLRU},
	} {
		b, d, _ := insertionCell{
			spec: CacheSpec{
				Lines:  lines,
				Array:  ArrayRandom16,
				Rank:   variant.rank,
				Scheme: variant.scheme,
				Parts:  2,
				Seed:   seedStream(scale.Seed, "ablfs"+variant.name),
			},
			targets: targets,
			insert:  []float64{0.5, 0.5},
			gens:    mcfPair(scale, "ablfs"),
			seed:    seedStream(scale.Seed, "ablfs-drv"),
			split:   []float64{0.7, 0.3},
		}.converge()
		d.measure(scale.Insertions / 2)
		occErr := (math.Abs(b.Cache.MeanOccupancy(0)-float64(targets[0]))/float64(targets[0]) +
			math.Abs(b.Cache.MeanOccupancy(1)-float64(targets[1]))/float64(targets[1])) / 2
		res.Rows = append(res.Rows, AblationFSRow{
			Variant: variant.name,
			AEF0:    b.Cache.Stats(0).AEF(),
			AEF1:    b.Cache.Stats(1).AEF(),
			OccErr:  occErr,
		})
	}
	return res
}

// Print renders A1.
func (r AblationFSResult) Print(w io.Writer) {
	fprintf(w, "Ablation A1 (%s scale): analytic FS vs feedback FS (targets 0.7/0.3, I 0.5/0.5)\n", r.Scale.Name)
	fprintf(w, "%-22s %8s %8s %8s\n", "variant", "AEF0", "AEF1", "occErr")
	for _, row := range r.Rows {
		fprintf(w, "%-22s %8.3f %8.3f %8.3f\n", row.Variant, row.AEF0, row.AEF1, row.OccErr)
	}
}

// AblationRRow is one candidate-count sample.
type AblationRRow struct {
	R     int
	PFAEF float64
	FSAEF float64
	PFOcc float64
	FSOcc float64
}

// AblationRResult is the A2 sweep.
type AblationRResult struct {
	Scale Scale
	Parts int
	Rows  []AblationRRow
}

// AblationRCounts is the swept candidate-count grid.
var AblationRCounts = []int{2, 4, 8, 16, 32, 64}

// AblationR runs A2: 8 equal partitions, equal insertion pressure, on
// random-candidates caches with varying R.
func AblationR(scale Scale) AblationRResult {
	const parts = 8
	res := AblationRResult{Scale: scale, Parts: parts}
	for _, r := range AblationRCounts {
		row := AblationRRow{R: r}
		row.PFAEF, row.PFOcc = runAblationRCase(scale, SchemePF, parts, r)
		row.FSAEF, row.FSOcc = runAblationRCase(scale, SchemeFS, parts, r)
		res.Rows = append(res.Rows, row)
	}
	return res
}

func runAblationRCase(scale Scale, scheme SchemeName, parts, r int) (aef, occ float64) {
	targets := make([]int, parts)
	for i := range targets {
		targets[i] = scale.AnalyticLines / parts
	}
	return runEvenCell(scale, CacheSpec{
		Lines:   scale.AnalyticLines,
		Array:   ArrayRandom16,
		RandomR: r,
		Rank:    futility.CoarseLRU,
		Scheme:  scheme,
		Parts:   parts,
		Seed:    seedStream(scale.Seed, "ablr-build"),
	}, targets, "ablr", "ablr-drv")
}

// runEvenCell drives one mcf thread per partition, every thread seeded
// from genTag, at equal insertion pressure for Insertions/3 and returns
// partition 0's AEF and occupancy/target.
func runEvenCell(scale Scale, spec CacheSpec, targets []int, genTag, drvTag string) (aef, occ float64) {
	insert := make([]float64, spec.Parts)
	gens := make([]trace.Generator, spec.Parts)
	for i := range gens {
		insert[i] = 1 / float64(spec.Parts)
		gens[i] = profileGenerator(scale, "mcf", seedStream(scale.Seed, genTag), i)
	}
	b, d, _ := insertionCell{spec: spec, targets: targets, insert: insert, gens: gens,
		seed: seedStream(scale.Seed, drvTag)}.converge()
	d.measure(scale.Insertions / 3)
	return b.Cache.Stats(0).AEF(), b.Cache.MeanOccupancy(0) / float64(targets[0])
}

// Print renders A2.
func (r AblationRResult) Print(w io.Writer) {
	fprintf(w, "Ablation A2 (%s scale): AEF vs candidate count R, %d equal partitions\n", r.Scale.Name, r.Parts)
	fprintf(w, "%6s %8s %8s %9s %9s\n", "R", "PF-AEF", "FS-AEF", "PF-occ", "FS-occ")
	for _, row := range r.Rows {
		fprintf(w, "%6d %8.3f %8.3f %9.3f %9.3f\n", row.R, row.PFAEF, row.FSAEF, row.PFOcc, row.FSOcc)
	}
}

// AblationWayRow compares way-partitioning against FS at one partition
// count.
type AblationWayRow struct {
	Parts   int
	WayAEF  float64
	FSAEF   float64
	WayOcc  float64 // partition 0 occupancy / target
	FSOcc   float64
	Skipped bool // way-partitioning cannot host more partitions than ways
}

// AblationWayResult is the placement-vs-replacement comparison (§II-B).
type AblationWayResult struct {
	Scale Scale
	Rows  []AblationWayRow
}

// AblationWayParts is the swept partition-count grid. 32 exceeds the 16
// ways and demonstrates placement's scalability wall.
var AblationWayParts = []int{2, 4, 8, 16, 32}

// AblationWay compares way-partitioning with FS on a 16-way cache under a
// deliberately uneven allocation (partition 0 gets 1/(2N) of the cache,
// stressing placement granularity) with equal insertion pressure.
func AblationWay(scale Scale) AblationWayResult {
	res := AblationWayResult{Scale: scale}
	for _, parts := range AblationWayParts {
		row := AblationWayRow{Parts: parts, Skipped: parts > 16}
		if !row.Skipped {
			row.WayAEF, row.WayOcc = runAblationWayCase(scale, SchemeWayPart, parts)
			row.FSAEF, row.FSOcc = runAblationWayCase(scale, SchemeFS, parts)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func runAblationWayCase(scale Scale, scheme SchemeName, parts int) (aef, occ float64) {
	lines := scale.AnalyticLines
	// Partition 0 gets half an equal share; the remainder is split evenly.
	targets := make([]int, parts)
	targets[0] = lines / parts / 2
	rest := (lines - targets[0]) / (parts - 1)
	for i := 1; i < parts; i++ {
		targets[i] = rest
	}
	return runEvenCell(scale, CacheSpec{
		Lines:  lines,
		Array:  Array16Way,
		Rank:   futility.CoarseLRU,
		Scheme: scheme,
		Parts:  parts,
		Seed:   seedStream(scale.Seed, "ablway"),
	}, targets, "ablway-g", "ablway-drv")
}

// Print renders the placement-vs-replacement comparison.
func (r AblationWayResult) Print(w io.Writer) {
	fprintf(w, "Ablation A3 (%s scale): way-partitioning vs FS, 16-way cache, partition 0 at half share\n", r.Scale.Name)
	fprintf(w, "%6s %9s %9s %9s %9s\n", "N", "way-AEF", "FS-AEF", "way-occ", "FS-occ")
	for _, row := range r.Rows {
		if row.Skipped {
			fprintf(w, "%6d %9s (more partitions than ways)\n", row.Parts, "—")
			continue
		}
		fprintf(w, "%6d %9.3f %9.3f %9.3f %9.3f\n",
			row.Parts, row.WayAEF, row.FSAEF, row.WayOcc, row.FSOcc)
	}
}
