// Command fstables regenerates every table and figure of the paper's
// evaluation (DESIGN.md §3 lists the experiment index).
//
// Experiments run under internal/harness: a panicking or hung experiment is
// reported (with its stack) and the sweep continues, per-experiment
// deadlines come from -timeout, and -resume skips experiments a previous
// invocation already completed (recorded in the -journal file, keyed by
// scale and seed). The exit status is 1 if any experiment failed and 2 on a
// usage error.
//
// Usage:
//
//	fstables                       # run everything at quick scale
//	fstables -scale full           # paper-fidelity configuration (slow)
//	fstables -fig fig7             # one experiment
//	fstables -list                 # show available experiment ids
//	fstables -timeout 30m          # per-experiment wall-clock deadline
//	fstables -scale full -resume   # continue an interrupted sweep
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
	"strings"
	"time"

	"fscache/internal/experiments"
	"fscache/internal/harness"
	"fscache/internal/profiling"
	"fscache/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the sweep args select and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fstables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "experiment id to run, or 'all'")
		scale   = fs.String("scale", "quick", "scale: quick or full")
		seed    = fs.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		timeout = fs.Duration("timeout", 0, "per-experiment wall-clock deadline (0 = none)")
		resume  = fs.Bool("resume", false, "skip experiments completed by a previous run (see -journal)")
		journal = fs.String("journal", "fstables.journal", "completion journal used by -resume")
		panicID = fs.String("panic", "", "make the named experiment panic (harness self-test)")
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

	if *list {
		for _, r := range experiments.Registry() {
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

	runners := experiments.Registry()
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

	opts := harness.Options{Timeout: *timeout}
	if *resume {
		j, err := harness.OpenJournal(*journal, journalScope(sc, *scen, *allocFl))
		if err != nil {
			fmt.Fprintln(stderr, "fstables:", err)
			return 1
		}
		defer j.Close()
		opts.Journal = j
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintln(stderr, "fstables:", err)
		return 1
	}

	desc := map[string]string{}
	tasks := make([]harness.Task, 0, len(runners))
	for _, r := range runners {
		r := r
		desc[r.ID] = r.Desc
		tasks = append(tasks, harness.Task{ID: r.ID, Run: func() (interface{}, error) {
			fmt.Fprintf(stdout, "==== %s — %s\n", r.ID, r.Desc)
			if r.ID == *panicID {
				panic("fstables: deliberate panic requested via -panic")
			}
			return r.Run(sc), nil
		}})
	}
	opts.Report = func(res harness.Result) {
		switch {
		case res.Resumed:
			fmt.Fprintf(stdout, "==== %s — %s\n     already completed (journal); skipping\n\n", res.ID, desc[res.ID])
		case res.Err != nil:
			fmt.Fprintf(stdout, "---- %s FAILED after %v\n\n", res.ID, res.Elapsed.Round(time.Millisecond))
		default:
			res.Value.(experiments.Printable).Print(stdout)
			fmt.Fprintf(stdout, "---- %s done in %v\n\n", res.ID, res.Elapsed.Round(time.Millisecond))
		}
	}

	summary := harness.RunAll(tasks, opts)
	prof.Stop() // flush profiles before any failure exit
	if !summary.OK() {
		summary.PrintFailures(stderr)
		return 1
	}
	return 0
}

// journalScope names the sweep configuration a -resume journal belongs to.
// Task IDs do not carry the -scenario path or the -alloc objective (an
// allocator run is "alloc:<spec name>" under every objective), so both are
// part of the scope: a run under another objective or spec resumes nothing.
func journalScope(sc experiments.Scale, scenario, objective string) string {
	scope := fmt.Sprintf("scale=%s seed=%d", sc.Name, sc.Seed)
	if scenario != "" {
		scope += " scenario=" + scenario
	}
	if objective != "" {
		scope += " alloc=" + objective
	}
	return scope
}
