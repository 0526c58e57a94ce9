// Command fstables regenerates every table and figure of the paper's
// evaluation (DESIGN.md §3 lists the experiment index).
//
// The selected experiments run in order, in this process. A panicking
// experiment is reported FAILED and the sweep goes on; the failures, each
// with its stack, are listed on stderr at the end. The exit status is 1 if
// any experiment failed and 2 on a usage error.
//
// Usage:
//
//	fstables                       # run everything at quick scale
//	fstables -scale full           # paper-fidelity configuration (slow)
//	fstables -fig fig7             # one experiment
//	fstables -list                 # show available experiment ids
//	fstables -scenario spec.yaml   # one declarative scenario (or a directory
//	                               # of specs): FS vs PF/Vantage comparison
//	                               # tables with counterfactual decision replay
//
// -scenario replaces the registry, so -fig is rejected alongside it, and
// -alloc is rejected without it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/experiments"
	"fscache/internal/profiling"
	"fscache/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// registry lists the experiments a sweep runs; tests replace it to drive the
// failure path with an experiment that panics.
var registry = experiments.Registry

// run executes the sweep args select and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fstables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "experiment id to run, or 'all'")
		scale   = fs.String("scale", "quick", "scale: quick or full")
		seed    = fs.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		scen    = fs.String("scenario", "", "scenario spec file or directory; replaces the experiment registry")
		allocFl = fs.String("alloc", "", "with -scenario: drive targets with the online allocator under this objective (utility|maxmin|qos|phase) and compare against the static split")
	)
	prof := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "fstables:", err)
		return 2
	}
	var conflict error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case conflict != nil:
		case f.Name == "fig" && *scen != "":
			conflict = errors.New("-fig cannot be combined with -scenario, which replaces the experiment registry")
		case f.Name == "alloc" && *scen == "":
			conflict = errors.New("-alloc applies only with -scenario")
		}
	})
	if conflict != nil {
		return usage(conflict)
	}
	// -scenario is set here, so qos can derive its guarantees from the spec.
	if *allocFl != "" && *allocFl != "qos" {
		if _, err := alloc.ByName(*allocFl); err != nil {
			return usage(err)
		}
	}

	if *list {
		for _, r := range registry() {
			fmt.Fprintf(stdout, "%-10s %s\n", r.ID, r.Desc)
		}
		return 0
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick()
	case "full":
		sc = experiments.Full()
	default:
		return usage(fmt.Errorf("unknown scale %q (quick|full)", *scale))
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	runners := registry()
	if *scen != "" {
		loaded, err := scenario.LoadSpecs(*scen)
		if err != nil {
			return usage(err)
		}
		runners = runners[:0]
		for _, ls := range loaded {
			ls := ls
			if *seed != 0 {
				ls.Spec.Seed = *seed
			}
			r := experiments.Runner{
				ID:   "scenario:" + ls.Spec.Name,
				Desc: fmt.Sprintf("scenario %s: FS vs PF/Vantage with counterfactual replay", ls.Spec.Name),
			}
			do := func() (experiments.Printable, error) { return experiments.RunScenario(ls.Spec, ls.Dir) }
			if *allocFl != "" {
				r.ID = "alloc:" + ls.Spec.Name
				r.Desc = fmt.Sprintf("scenario %s: online %s allocation vs static targets", ls.Spec.Name, *allocFl)
				do = func() (experiments.Printable, error) { return experiments.RunScenarioAlloc(ls.Spec, ls.Dir, *allocFl) }
			}
			r.Run = func(experiments.Scale) experiments.Printable {
				res, err := do()
				if err != nil {
					panic("fstables: " + err.Error())
				}
				return res
			}
			runners = append(runners, r)
		}
	} else if *fig != "all" {
		r, err := experiments.ByID(strings.TrimSpace(*fig))
		if err != nil {
			return usage(err)
		}
		runners = []experiments.Runner{r}
	}

	if err := prof.Start(); err != nil {
		fmt.Fprintln(stderr, "fstables:", err)
		return 1
	}
	var failed []string
	for _, r := range runners {
		if report := runOne(r, sc, stdout); report != "" {
			failed = append(failed, report)
		}
	}
	prof.Stop() // flush profiles before any failure exit
	if len(failed) == 0 {
		return 0
	}
	fmt.Fprintf(stderr, "%d experiment(s) failed:\n%s", len(failed), strings.Join(failed, ""))
	return 1
}

// runOne runs r at sc and prints its header, result and elapsed time to
// stdout. A panic is recovered into the returned failure report, which
// carries the stack, so one experiment costs only its own cell of the sweep;
// the report is empty when r succeeds.
func runOne(r experiments.Runner, sc experiments.Scale, stdout io.Writer) (report string) {
	fmt.Fprintf(stdout, "==== %s — %s\n", r.ID, r.Desc)
	start := time.Now()
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		fmt.Fprintf(stdout, "---- %s FAILED after %v\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		var b strings.Builder
		fmt.Fprintf(&b, "  experiment %s: panic: %v\n    panic stack:\n", r.ID, v)
		for _, line := range strings.Split(strings.TrimSuffix(string(debug.Stack()), "\n"), "\n") {
			fmt.Fprintf(&b, "      %s\n", line)
		}
		report = b.String()
	}()
	r.Run(sc).Print(stdout)
	fmt.Fprintf(stdout, "---- %s done in %v\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	return ""
}
