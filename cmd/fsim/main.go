// Command fsim runs one multiprogrammed cache-partitioning simulation:
// a mix of benchmark threads over a shared, partitioned L2 with the
// paper's timing model, printing per-thread IPC and per-partition
// occupancy/associativity.
//
// Examples:
//
//	fsim -scheme fs -benchmarks gromacs,lbm,lbm,lbm -targets 4096,equal
//	fsim -scheme vantage -rank opt -lines 32768 -benchmarks mcf,mcf
//	fsim -scheme pf -array random-16 -benchmarks mcf,omnetpp,lbm,astar
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fscache/internal/experiments"
	"fscache/internal/futility"
	"fscache/internal/profiling"
	"fscache/internal/sim"
	"fscache/internal/trace"
	"fscache/internal/workload"
)

func main() {
	var (
		scheme   = flag.String("scheme", "fs", "partitioning scheme: fs|pf|prism|vantage|cqvp|unmanaged|fullassoc")
		array    = flag.String("array", "setassoc-16", "cache array: setassoc-16|random-16|fullyassoc|directmapped|zcache-z4/52|skew-8")
		rank     = flag.String("rank", "coarse-lru", "futility ranking: coarse-lru|lru|lfu|opt")
		lines    = flag.Int("lines", 65536, "L2 size in 64B lines")
		benches  = flag.String("benchmarks", "gromacs,lbm,lbm,lbm", "comma-separated benchmark per thread")
		targets  = flag.String("targets", "equal", "comma-separated per-thread line targets; 'equal' splits evenly; a trailing 'equal' splits the remainder")
		accesses = flag.Int("accesses", 100000, "L2 accesses per thread")
		l1lines  = flag.Int("l1", 512, "private L1 size in lines (4-way)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		maxsteps = flag.Uint64("maxsteps", 0, "deterministic watchdog: panic after this many simulated accesses (0 = off)")
	)
	prof := profiling.Register()
	flag.Parse()

	names := splitList(*benches)
	if len(names) == 0 {
		fail("no benchmarks given")
	}
	parts := len(names)

	rk, err := parseRank(*rank)
	if err != nil {
		fail(err.Error())
	}

	tg, err := parseTargets(*targets, parts, *lines)
	if err != nil {
		fail(err.Error())
	}

	if err := prof.Start(); err != nil {
		fail(err.Error())
	}
	defer prof.Stop()

	// Build per-thread traces through private L1 filters.
	traces := make([]*trace.Trace, parts)
	for t, name := range names {
		prof, err := workload.ByName(name)
		if err != nil {
			fail(err.Error())
		}
		gen := prof.NewGenerator(*seed, t)
		l1 := sim.NewL1(*l1lines, 4)
		traces[t] = sim.BuildL2Trace(gen, l1, *accesses, 0)
		if rk == futility.OPT {
			traces[t].ComputeNextUse()
		}
	}

	b := experiments.Build(experiments.CacheSpec{
		Lines:  *lines,
		Array:  experiments.ArrayKind(*array),
		Rank:   rk,
		Scheme: experiments.SchemeName(*scheme),
		Parts:  parts,
		Seed:   *seed,
	})
	b.SetTargets(tg)

	mc := sim.NewMulticore(b.Cache, sim.DefaultTiming(), traces)
	mc.SetStepLimit(*maxsteps)
	results := mc.Run()

	fmt.Printf("scheme=%s array=%s rank=%s lines=%d (%d KB) threads=%d seed=%d\n\n",
		*scheme, *array, rk, *lines, *lines*64/1024, parts, *seed)
	fmt.Printf("%3s %-12s %9s %9s %9s %9s %9s %8s\n",
		"thr", "bench", "target", "occup", "occ/tgt", "IPC", "missrate", "AEF")
	var totalIPC float64
	for t := range results {
		occ := b.Cache.MeanOccupancy(t)
		frac := 0.0
		if tg[t] > 0 {
			frac = occ / float64(tg[t])
		}
		fmt.Printf("%3d %-12s %9d %9.0f %9.3f %9.4f %9.3f %8.3f\n",
			t, names[t], tg[t], occ, frac,
			results[t].IPC(), results[t].MissRate(), b.Cache.Stats(t).AEF())
		totalIPC += results[t].IPC()
	}
	fmt.Printf("\nthroughput (sum IPC): %.4f\n", totalIPC)
	if b.PriSM != nil {
		fmt.Printf("prism abnormality rate: %.3f\n", b.PriSM.AbnormalityRate())
	}
	if b.FSFeedback != nil {
		fmt.Printf("fs scaling factors: %v\n", fmtAlphas(b.FSFeedback.Alphas()))
	}
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
// explicit numbers with a trailing "equal" that splits the remainder.
func parseTargets(s string, parts, lines int) ([]int, error) {
	items := splitList(s)
	out := make([]int, parts)
	if len(items) == 1 && items[0] == "equal" {
		for i := range out {
			out[i] = lines / parts
		}
		return out, nil
	}
	used, fixed := 0, 0
	equalFrom := -1
	for i, it := range items {
		if it == "equal" {
			if i != len(items)-1 {
				return nil, fmt.Errorf("'equal' must be the last target item")
			}
			equalFrom = i
			break
		}
		v, err := strconv.Atoi(it)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad target %q", it)
		}
		if i >= parts {
			return nil, fmt.Errorf("more targets than threads")
		}
		out[i] = v
		used += v
		fixed++
	}
	if equalFrom >= 0 {
		rest := parts - fixed
		if rest <= 0 {
			return nil, fmt.Errorf("'equal' with no remaining threads")
		}
		share := (lines - used) / rest
		if share < 0 {
			return nil, fmt.Errorf("targets exceed capacity")
		}
		for i := fixed; i < parts; i++ {
			out[i] = share
		}
		return out, nil
	}
	if fixed != parts {
		return nil, fmt.Errorf("have %d targets for %d threads", fixed, parts)
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

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "fsim:", msg)
	os.Exit(2)
}
