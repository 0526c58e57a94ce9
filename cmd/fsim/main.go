// Command fsim runs one multiprogrammed cache-partitioning simulation:
// a mix of benchmark threads, each behind a private 512-line 4-way L1, over
// a shared, partitioned L2 with the paper's timing model, printing
// per-thread IPC and per-partition occupancy/associativity. Exit status is
// 2 on a usage error and 1 when a profile cannot be written.
//
// Examples:
//
//	fsim -scheme fs -benchmarks gromacs,lbm,lbm,lbm -targets 4096,equal
//	fsim -scheme vantage -rank opt -lines 32768 -benchmarks mcf,mcf
//	fsim -scheme pf -array random-16 -benchmarks mcf,omnetpp,lbm,astar
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fscache/internal/alloc"
	"fscache/internal/experiments"
	"fscache/internal/futility"
	"fscache/internal/profiling"
	"fscache/internal/sim"
	"fscache/internal/trace"
	"fscache/internal/workload"
)

// l1Lines is each thread's private L1 (4-way).
const l1Lines = 512

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run simulates the mix args describe and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scheme   = fs.String("scheme", "fs", "partitioning scheme: fs|pf|prism|vantage|cqvp|unmanaged|fullassoc|waypart")
		array    = fs.String("array", "setassoc-16", "cache array: setassoc-16|random-16|fullyassoc|directmapped|zcache-z4/52|skew-8")
		rank     = fs.String("rank", "coarse-lru", "futility ranking: coarse-lru|lru|lfu|opt")
		lines    = fs.Int("lines", 65536, "L2 size in 64B lines")
		benches  = fs.String("benchmarks", "gromacs,lbm,lbm,lbm", "comma-separated benchmark per thread")
		targets  = fs.String("targets", "equal", "comma-separated per-thread line targets; 'equal' splits evenly; a trailing 'equal' splits the remainder")
		accesses = fs.Int("accesses", 100000, "L2 accesses per thread")
		seed     = fs.Uint64("seed", 1, "simulation seed")
	)
	prof := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "fsim:", err)
		return code
	}

	names := splitList(*benches)
	if len(names) == 0 {
		return fail(2, errors.New("no benchmarks given"))
	}
	parts := len(names)
	rk, err := parseRank(*rank)
	if err != nil {
		return fail(2, err)
	}
	tg, err := parseTargets(*targets, parts, *lines)
	if err != nil {
		return fail(2, err)
	}
	if experiments.SchemeName(*scheme) == experiments.SchemeFSFixed { // Check accepts it
		return fail(2, errors.New("scheme fs-fixed needs scaling factors, which fsim cannot set: use fs"))
	}
	spec := experiments.CacheSpec{
		Lines:  *lines,
		Array:  experiments.ArrayKind(*array),
		Rank:   rk,
		Scheme: experiments.SchemeName(*scheme),
		Parts:  parts,
		Seed:   *seed,
	}
	if err := spec.Check(); err != nil {
		return fail(2, err)
	}

	if err := prof.Start(); err != nil {
		return fail(1, err)
	}
	defer prof.Stop()

	// Build per-thread traces through private L1 filters.
	traces := make([]*trace.Trace, parts)
	for t, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			return fail(2, err)
		}
		traces[t] = sim.BuildL2Trace(p.NewGenerator(*seed, t), sim.NewL1(l1Lines), *accesses)
		if rk == futility.OPT {
			traces[t].ComputeNextUse()
		}
	}

	b := experiments.Build(spec)
	tg = b.SetCacheTargets(tg)

	results := sim.NewMulticore(b.Cache, traces).Run()

	fmt.Fprintf(stdout, "scheme=%s array=%s rank=%s lines=%d (%d KB) threads=%d seed=%d\n\n",
		*scheme, *array, rk, *lines, *lines*64/1024, parts, *seed)
	fmt.Fprintf(stdout, "%3s %-12s %9s %9s %9s %9s %9s %8s\n",
		"thr", "bench", "target", "occup", "occ/tgt", "IPC", "missrate", "AEF")
	var totalIPC float64
	for t := range results {
		occ := b.Cache.MeanOccupancy(t)
		frac := 0.0
		if tg[t] > 0 {
			frac = occ / float64(tg[t])
		}
		fmt.Fprintf(stdout, "%3d %-12s %9d %9.0f %9.3f %9.4f %9.3f %8.3f\n",
			t, names[t], tg[t], occ, frac,
			results[t].IPC(), results[t].MissRate(), b.Cache.Stats(t).AEF())
		totalIPC += results[t].IPC()
	}
	fmt.Fprintf(stdout, "\nthroughput (sum IPC): %.4f\n", totalIPC)
	if b.PriSM != nil {
		fmt.Fprintf(stdout, "prism abnormality rate: %.3f\n", b.PriSM.AbnormalityRate())
	}
	if b.FSFeedback != nil {
		fmt.Fprintf(stdout, "fs scaling factors: %v\n", fmtAlphas(b.FSFeedback.Alphas()))
	}
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseRank(s string) (futility.Kind, error) {
	switch s {
	case "coarse-lru":
		return futility.CoarseLRU, nil
	case "lru":
		return futility.LRU, nil
	case "lfu":
		return futility.LFU, nil
	case "opt":
		return futility.OPT, nil
	}
	return 0, fmt.Errorf("unknown ranking %q", s)
}

// parseTargets interprets the -targets flag: "equal", explicit numbers, or
// explicit numbers with a trailing "equal" that splits the remainder. Equal
// shares sum exactly to what they split, the remainder on the low threads.
func parseTargets(s string, parts, lines int) ([]int, error) {
	items := splitList(s)
	equal := len(items) > 0 && items[len(items)-1] == "equal"
	if equal {
		items = items[:len(items)-1]
	}
	if n := len(items); n > parts || equal == (n == parts) {
		return nil, fmt.Errorf("targets %q: want %d numbers, or fewer and a trailing 'equal'", s, parts)
	}
	out := make([]int, parts)
	used := 0
	for i, it := range items {
		v, err := strconv.Atoi(it)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad target %q", it)
		}
		out[i] = v
		used += v
	}
	if equal {
		if used > lines {
			return nil, fmt.Errorf("targets %q exceed capacity %d", s, lines)
		}
		alloc.EvenSplit(out[len(items):], lines-used)
	}
	return out, nil
}

func fmtAlphas(a []float64) string {
	items := make([]string, len(a))
	for i, v := range a {
		items[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	return "[" + strings.Join(items, " ") + "]"
}
