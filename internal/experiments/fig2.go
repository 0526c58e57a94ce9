package experiments

import (
	"io"

	"fscache/internal/futility"
	"fscache/internal/sim"
	"fscache/internal/stats"
	"fscache/internal/trace"
	"fscache/internal/workload"
	"fscache/internal/xrand"
)

// Fig. 2: partitioning-induced associativity loss under the
// Partitioning-First scheme (§III-C). A 16-way set-associative cache is
// split into N equal 512 KB partitions (the cache grows with N); each
// partition runs its own copy of a benchmark; futility ranking is OPT.
// 2a: associativity CDF of the first partition for mcf, N = 1..32.
// 2b: misses of the first partition, normalized to N = 1.
// 2c: IPC of the first partition, normalized to N = 1.

// Fig2PartCounts are the paper's partition counts.
var Fig2PartCounts = []int{1, 2, 4, 8, 16, 32}

// Fig2Row is one (benchmark, N) measurement.
type Fig2Row struct {
	Bench  string
	N      int
	AEF    float64
	Misses uint64
	IPC    float64
}

// Fig2Result collects Fig. 2 across benchmarks and partition counts.
type Fig2Result struct {
	Scale Scale
	Rank  futility.Kind
	Rows  []Fig2Row
}

// runFig2Cell simulates one (benchmark, N) configuration and returns the
// first partition's statistics.
func runFig2Cell(scale Scale, bench string, n int, rank futility.Kind) Fig2Row {
	traces := make([]*trace.Trace, n)
	for t := 0; t < n; t++ {
		gen := profileGenerator(scale, bench, scale.Seed, t)
		l1 := sim.NewL1(scale.L1Lines)
		traces[t] = sim.BuildL2Trace(gen, l1, scale.TraceLen)
		if rank == futility.OPT {
			traces[t].ComputeNextUse()
		}
	}
	b := Build(CacheSpec{
		Lines:  n * scale.PartLines,
		Array:  Array16Way,
		Rank:   rank,
		Scheme: SchemePF,
		Parts:  n,
		Seed:   scale.Seed + uint64(n),
	})
	targets := make([]int, n)
	for i := range targets {
		targets[i] = scale.PartLines
	}
	b.SetTargets(targets)
	results := sim.NewMulticore(b.Cache, traces).Run()
	st := b.Cache.Stats(0)
	return Fig2Row{
		Bench:  bench,
		N:      n,
		AEF:    st.AEF(),
		Misses: results[0].Misses,
		IPC:    results[0].IPC(),
	}
}

// Fig2a reproduces the associativity-CDF panel for one benchmark
// (mcf in the paper).
func Fig2a(scale Scale, bench string) Fig2Result {
	res := Fig2Result{Scale: scale, Rank: futility.OPT}
	for _, n := range Fig2PartCounts {
		res.Rows = append(res.Rows, runFig2Cell(scale, bench, n, futility.OPT))
	}
	return res
}

// Fig2bc reproduces the miss-count and IPC panels across all benchmarks.
func Fig2bc(scale Scale, benches []string) Fig2Result {
	if len(benches) == 0 {
		benches = workload.Names()
	}
	res := Fig2Result{Scale: scale, Rank: futility.OPT}
	type cell struct {
		bench string
		n     int
	}
	var cells []cell
	for _, bench := range benches {
		for _, n := range Fig2PartCounts {
			cells = append(cells, cell{bench, n})
		}
	}
	rows := make([]Fig2Row, len(cells))
	parallelFor(len(cells), func(i int) {
		rows[i] = runFig2Cell(scale, cells[i].bench, cells[i].n, futility.OPT)
	})
	res.Rows = rows
	return res
}

// Print renders paper-style rows: AEF per N, then normalized misses/IPC.
func (r Fig2Result) Print(w io.Writer) {
	fprintf(w, "Fig.2 (%s scale, %v ranking): PF with N equal partitions\n", r.Scale.Name, r.Rank)
	byBench := map[string][]Fig2Row{}
	var order []string
	for _, row := range r.Rows {
		if _, ok := byBench[row.Bench]; !ok {
			order = append(order, row.Bench)
		}
		byBench[row.Bench] = append(byBench[row.Bench], row)
	}
	fprintf(w, "%-12s %6s %8s %14s %10s\n", "bench", "N", "AEF", "misses(norm)", "IPC(norm)")
	for _, bench := range order {
		rows := byBench[bench]
		base := rows[0]
		for _, row := range rows {
			fprintf(w, "%-12s %6d %8.3f %14.3f %10.3f\n",
				bench, row.N, row.AEF,
				float64(row.Misses)/float64(max(base.Misses, 1)),
				row.IPC/nonzero(base.IPC))
		}
	}
}

func nonzero(x float64) float64 {
	if stats.Feq(x, 0) {
		return 1
	}
	return x
}

// seedStream derives a fresh per-use seed domain.
func seedStream(base uint64, tag string) uint64 {
	h := base
	for _, c := range tag {
		h = xrand.Mix64(h ^ uint64(c))
	}
	return h
}
