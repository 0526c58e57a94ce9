// Command fstrace generates and inspects trace files in the repository's
// binary trace format (internal/trace).
//
// Usage:
//
//	fstrace gen -bench mcf -n 100000 -o mcf.fst           # memory references
//	fstrace gen -bench mcf -n 100000 -l2 -o mcf-l2.fst    # L1-filtered L2 trace
//	fstrace info mcf.fst                                  # summary statistics
package main

import (
	"flag"
	"fmt"
	"os"

	"fscache/internal/alloc"
	"fscache/internal/sim"
	"fscache/internal/trace"
	"fscache/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "mrc":
		mrcCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  fstrace gen  -bench <name> -n <accesses> [-l2] [-l1 lines] [-seed s] [-thread t] -o <file>
  fstrace info <file>
  fstrace mrc  <file>     # exact LRU miss-ratio curve (Mattson stack algorithm)

benchmarks: %v
`, workload.Names())
	os.Exit(2)
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		bench   = fs.String("bench", "mcf", "benchmark name")
		n       = fs.Int("n", 100000, "number of accesses to produce")
		l2      = fs.Bool("l2", false, "filter through a private L1 (emit the L2 trace)")
		l1lines = fs.Int("l1", 512, "L1 size in lines when -l2 is set")
		seed    = fs.Uint64("seed", 1, "generator seed")
		thread  = fs.Int("thread", 0, "thread id (address-space selector)")
		out     = fs.String("o", "", "output file (required)")
	)
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "fstrace: -o is required")
		os.Exit(2)
	}
	prof, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fstrace:", err)
		os.Exit(2)
	}
	gen := prof.NewGenerator(*seed, *thread)
	var tr *trace.Trace
	if *l2 {
		tr = sim.BuildL2Trace(gen, sim.NewL1(*l1lines, 4), *n, 0)
	} else {
		tr = trace.Collect(gen, *n)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fstrace:", err)
		os.Exit(1)
	}
	defer f.Close()
	if _, err := tr.WriteTo(f); err != nil {
		fmt.Fprintln(os.Stderr, "fstrace:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d accesses to %s\n", tr.Len(), *out)
}

func info(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fstrace:", err)
		os.Exit(1)
	}
	defer f.Close()
	var tr trace.Trace
	_, version, err := tr.DecodeFrom(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fstrace:", err)
		os.Exit(1)
	}
	reuse := 0
	seen := make(map[uint64]struct{}, 1<<16)
	writes := 0
	for i := range tr.Accesses {
		a := &tr.Accesses[i]
		if _, ok := seen[a.Addr]; ok {
			reuse++
		} else {
			seen[a.Addr] = struct{}{}
		}
		if a.Kind == trace.Write {
			writes++
		}
	}
	n := tr.Len()
	checksum := "CRC-32 verified"
	if version == 1 {
		checksum = "no checksum"
	}
	fmt.Printf("format:        FST%d (%s)\n", version, checksum)
	fmt.Printf("accesses:      %d\n", n)
	fmt.Printf("instructions:  %d\n", tr.Instructions())
	fmt.Printf("footprint:     %d lines (%d KB)\n", len(seen), len(seen)*64/1024)
	if n > 0 {
		fmt.Printf("reuse frac:    %.3f\n", float64(reuse)/float64(n))
		fmt.Printf("write frac:    %.3f\n", float64(writes)/float64(n))
		fmt.Printf("instr/access:  %.1f\n", float64(tr.Instructions())/float64(n))
	}
}

// mrcCmd prints the trace's exact LRU miss-ratio curve at power-of-two
// cache sizes up to its footprint.
func mrcCmd(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fstrace:", err)
		os.Exit(1)
	}
	defer f.Close()
	var tr trace.Trace
	if _, err := tr.ReadFrom(f); err != nil {
		fmt.Fprintln(os.Stderr, "fstrace:", err)
		os.Exit(1)
	}
	foot := tr.Footprint()
	depth := 1
	for depth < foot {
		depth <<= 1
	}
	// Shift 0 with the whole footprint as tags is the exact Mattson profiler.
	p := alloc.NewProfiler(depth, 0, 1)
	for i := range tr.Accesses {
		p.Touch(tr.Accesses[i].Addr)
	}
	fmt.Printf("%12s %12s %12s\n", "lines", "size", "missratio")
	for s := 64; s <= depth; s <<= 1 {
		fmt.Printf("%12d %9d KB %12.4f\n", s, s*64/1024, p.MissRatio(s))
	}
	fmt.Printf("footprint: %d lines; cold misses: %d of %d\n",
		foot, p.Far(), p.Offered())
}
