// QoS example: the paper's headline scenario (Fig. 7) in miniature. Eight
// cores share an L2; two "subject" threads run a cache-friendly workload
// (gromacs) with a capacity guarantee while six memory-hogging streamers
// (lbm) flood the cache. Compare an unmanaged cache against Futility
// Scaling: with FS the subjects keep their guaranteed space and their IPC.
package main

import (
	"fmt"
	"io"
	"os"

	"fscache/internal/alloc"
	"fscache/internal/experiments"
	"fscache/internal/futility"
	"fscache/internal/sim"
	"fscache/internal/trace"
	"fscache/internal/workload"
)

const (
	l2Lines      = 16384 // 1 MB
	threads      = 8
	subjects     = 2
	subjectLines = 1024 // 64 KB guarantee each
	traceLen     = 40000
)

func main() { report(os.Stdout) }

// report runs the scenario under each scheme and prints the comparison to w.
func report(w io.Writer) {
	// Build per-thread L2 traces once; both schemes replay the same mix.
	traces := make([]*trace.Trace, threads)
	for t := 0; t < threads; t++ {
		name := "lbm"
		if t < subjects {
			name = "gromacs"
		}
		prof, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		// Shrink the workloads 4× to match the 1 MB cache (see DESIGN.md §4).
		gen := prof.Shrunk(4).NewGenerator(7, t)
		traces[t] = sim.BuildL2Trace(gen, sim.NewL1(256), traceLen)
	}

	// Subjects get their guarantee; the streamers split the rest evenly.
	targets := make([]int, threads)
	for t := 0; t < subjects; t++ {
		targets[t] = subjectLines
	}
	alloc.EvenSplit(targets[subjects:], l2Lines-subjects*subjectLines)

	fmt.Fprintln(w, "QoS mini-scenario: 2× gromacs (guaranteed 1024 lines) vs 6× lbm on a 1 MB L2")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s\n",
		"scheme", "subj occ/tgt", "subj IPC", "bg IPC", "throughput")
	for _, scheme := range []experiments.SchemeName{
		experiments.SchemeUnmanaged,
		experiments.SchemePF,
		experiments.SchemeFS,
	} {
		run(w, scheme, traces, targets)
	}
	fmt.Fprintln(w, "\nUnmanaged sharing lets the streamers squeeze the subjects below")
	fmt.Fprintln(w, "their guarantee; PF and FS both hold the guarantee, and FS does")
	fmt.Fprintln(w, "so while preserving the subjects' associativity (see fstables -fig fig7).")
}

func run(w io.Writer, scheme experiments.SchemeName, traces []*trace.Trace, targets []int) {
	b := experiments.Build(experiments.CacheSpec{
		Lines:  l2Lines,
		Array:  experiments.Array16Way,
		Rank:   futility.CoarseLRU,
		Scheme: scheme,
		Parts:  threads,
		Seed:   11,
	})
	b.SetTargets(targets)
	results := sim.NewMulticore(b.Cache, traces).Run()

	var occ, subjIPC, bgIPC, tp float64
	for t := 0; t < threads; t++ {
		ipc := results[t].IPC()
		tp += ipc
		if t < subjects {
			occ += b.Cache.MeanOccupancy(t) / float64(subjectLines)
			subjIPC += ipc
		} else {
			bgIPC += ipc
		}
	}
	fmt.Fprintf(w, "%-10s %12.3f %12.4f %12.4f %12.4f\n",
		scheme, occ/subjects, subjIPC/subjects, bgIPC/float64(threads-subjects), tp)
}
