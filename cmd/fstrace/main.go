// Command fstrace generates and inspects trace files in the repository's
// binary trace format (internal/trace).
//
// Usage:
//
//	fstrace gen -bench mcf -n 100000 -o mcf.fst           # memory references
//	fstrace gen -bench mcf -n 100000 -l2 -o mcf-l2.fst    # L2 trace behind a private 512-line L1
//	fstrace info mcf.fst                                  # summary statistics
//	fstrace mrc mcf.fst                                   # exact LRU miss-ratio curve
//
// gen draws thread 0's address space. Exit status is 0 on success, 1 when a
// file cannot be read or written, and 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"fscache/internal/alloc"
	"fscache/internal/sim"
	"fscache/internal/trace"
	"fscache/internal/workload"
)

// l1Lines is the private L1 that gen -l2 filters through (4-way).
const l1Lines = 512

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one subcommand and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "gen" {
		return gen(args[1:], stdout, stderr)
	}
	if len(args) != 2 || args[0] != "info" && args[0] != "mrc" {
		fmt.Fprintf(stderr, `usage:
  fstrace gen  -bench <name> -n <accesses> [-l2] [-seed s] -o <file>
  fstrace info <file>
  fstrace mrc  <file>     # exact LRU miss-ratio curve (Mattson stack algorithm)

benchmarks: %v
`, workload.Names())
		return 2
	}
	var tr trace.Trace
	f, err := os.Open(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "fstrace:", err)
		return 1
	}
	_, err = tr.ReadFrom(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "fstrace:", err)
		return 1
	}
	if args[0] == "info" {
		info(&tr, stdout)
	} else {
		mrc(&tr, stdout)
	}
	return 0
}

func gen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench = fs.String("bench", "mcf", "benchmark name")
		n     = fs.Int("n", 100000, "number of accesses to produce")
		l2    = fs.Bool("l2", false, "filter through a private L1 (emit the L2 trace)")
		seed  = fs.Uint64("seed", 1, "generator seed")
		out   = fs.String("o", "", "output file (required)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "fstrace: -o is required")
		return 2
	}
	prof, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "fstrace:", err)
		return 2
	}
	g := prof.NewGenerator(*seed, 0)
	var tr *trace.Trace
	if *l2 {
		tr = sim.BuildL2Trace(g, sim.NewL1(l1Lines), *n)
	} else {
		tr = trace.Collect(g, *n)
	}
	// Close flushes what the OS buffered, so its error fails the write too.
	f, err := os.Create(*out)
	if err == nil {
		_, err = tr.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "fstrace:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d accesses to %s\n", tr.Len(), *out)
	return 0
}

func info(tr *trace.Trace, w io.Writer) {
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
	fmt.Fprintln(w, "format:        FST2 (CRC-32 verified)")
	fmt.Fprintf(w, "accesses:      %d\n", n)
	fmt.Fprintf(w, "instructions:  %d\n", tr.Instructions())
	fmt.Fprintf(w, "footprint:     %d lines (%d KB)\n", len(seen), len(seen)*64/1024)
	if n > 0 {
		fmt.Fprintf(w, "reuse frac:    %.3f\n", float64(reuse)/float64(n))
		fmt.Fprintf(w, "write frac:    %.3f\n", float64(writes)/float64(n))
		fmt.Fprintf(w, "instr/access:  %.1f\n", float64(tr.Instructions())/float64(n))
	}
}

// mrc prints the trace's exact LRU miss-ratio curve at power-of-two cache
// sizes up to its footprint.
func mrc(tr *trace.Trace, w io.Writer) {
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
	fmt.Fprintf(w, "%12s %12s %12s\n", "lines", "size", "missratio")
	for s := 64; s <= depth; s <<= 1 {
		fmt.Fprintf(w, "%12d %9d KB %12.4f\n", s, s*64/1024, p.MissRatio(s))
	}
	fmt.Fprintf(w, "footprint: %d lines; cold misses: %d of %d\n",
		foot, p.Far(), p.Offered())
}
