package experiments

import (
	"io"

	"fscache/internal/futility"
	"fscache/internal/sim"
	"fscache/internal/trace"
)

// Fig. 6: associativity sensitivity — per-benchmark speedup of a
// fully-associative cache over a direct-mapped cache of the same size,
// across sizes, under OPT (6a) and LRU (6b) rankings. The paper's
// takeaways: sensitivity is benchmark- and size-dependent (mcf always
// sensitive, lbm never, gromacs only below ~1 MB), and LRU both shrinks
// the headroom and can invert it (cactusADM loses performance from full
// associativity under LRU).

// Fig6Benches are the six benchmarks the paper plots.
var Fig6Benches = []string{"mcf", "omnetpp", "gromacs", "astar", "cactusADM", "lbm"}

// Fig6Row is one (benchmark, size, ranking) speedup sample.
type Fig6Row struct {
	Bench   string
	Lines   int
	Rank    futility.Kind
	IPCFA   float64
	IPCDM   float64
	Speedup float64
}

// Fig6Result collects the sweep.
type Fig6Result struct {
	Scale Scale
	Rows  []Fig6Row
}

// Fig6Sizes returns the seven cache sizes swept at a given scale
// (128 KB → 8 MB at full scale).
func Fig6Sizes(scale Scale) []int {
	sizes := make([]int, 0, 7)
	for s := scale.L2Lines >> 6; s <= scale.L2Lines; s <<= 1 {
		sizes = append(sizes, s)
	}
	return sizes
}

// Fig6 runs the sweep.
func Fig6(scale Scale) Fig6Result {
	res := Fig6Result{Scale: scale}
	for _, rank := range []futility.Kind{futility.OPT, futility.LRU} {
		for _, bench := range Fig6Benches {
			// One L2 trace per benchmark and ranking (shared across sizes).
			gen := profileGenerator(scale, bench, seedStream(scale.Seed, "fig6"+bench), 0)
			l1 := sim.NewL1(scale.L1Lines)
			tr := sim.BuildL2Trace(gen, l1, scale.TraceLen)
			if rank == futility.OPT {
				tr.ComputeNextUse()
			}
			for _, lines := range Fig6Sizes(scale) {
				ipcFA := runFig6Cell(scale, tr, lines, ArrayFullyAssc, rank)
				ipcDM := runFig6Cell(scale, tr, lines, ArrayDirect, rank)
				res.Rows = append(res.Rows, Fig6Row{
					Bench: bench, Lines: lines, Rank: rank,
					IPCFA: ipcFA, IPCDM: ipcDM, Speedup: ipcFA / ipcDM,
				})
			}
		}
	}
	return res
}

func runFig6Cell(scale Scale, tr *trace.Trace, lines int, arr ArrayKind, rank futility.Kind) float64 {
	b := Build(CacheSpec{
		Lines:  lines,
		Array:  arr,
		Rank:   rank,
		Scheme: SchemeUnmanaged,
		Parts:  1,
		Seed:   seedStream(scale.Seed, "fig6cell"+string(arr)),
	})
	b.SetTargets([]int{lines})
	results := sim.NewMulticore(b.Cache, []*trace.Trace{tr}).Run()
	return results[0].IPC()
}

// Print renders one row per (ranking, benchmark, size).
func (r Fig6Result) Print(w io.Writer) {
	fprintf(w, "Fig.6 (%s scale): fully-associative vs direct-mapped speedup\n", r.Scale.Name)
	fprintf(w, "%-6s %-12s %10s %8s %8s %9s\n", "rank", "bench", "lines", "IPC(FA)", "IPC(DM)", "speedup")
	for _, row := range r.Rows {
		fprintf(w, "%-6v %-12s %10d %8.4f %8.4f %9.3f\n",
			row.Rank, row.Bench, row.Lines, row.IPCFA, row.IPCDM, row.Speedup)
	}
}
