// Command fstables regenerates every table and figure of the paper's
// evaluation (DESIGN.md §3 lists the experiment index).
//
// Experiments run under internal/harness: a panicking or hung experiment is
// reported (with its stack) and the sweep continues, per-experiment
// deadlines come from -timeout, and -resume skips experiments a previous
// invocation already completed (recorded in the -journal file, keyed by
// scale and seed). The exit status is nonzero if any experiment failed.
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
package main

import (
	"encoding/json"
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
	var (
		fig     = flag.String("fig", "all", "experiment id to run, or 'all'")
		scale   = flag.String("scale", "quick", "scale: quick or full")
		seed    = flag.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		plots   = flag.Bool("plots", false, "also render ASCII CDF plots where available")
		asJSON  = flag.Bool("json", false, "emit results as JSON instead of tables")
		timeout = flag.Duration("timeout", 0, "per-experiment wall-clock deadline (0 = none)")
		resume  = flag.Bool("resume", false, "skip experiments completed by a previous run (see -journal)")
		journal = flag.String("journal", "fstables.journal", "completion journal used by -resume")
		panicID = flag.String("panic", "", "make the named experiment panic (harness self-test)")
		scen    = flag.String("scenario", "", "scenario spec file or directory; replaces the experiment registry")
		allocFl = flag.String("alloc", "", "with -scenario: drive targets with the online allocator under this objective (utility|maxmin|qos|phase) and compare against the static split")
	)
	prof := profiling.Register()
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", r.ID, r.Desc)
		}
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.Quick()
	case "full":
		sc = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "fstables: unknown scale %q (quick|full)\n", *scale)
		os.Exit(2)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "fstables:", err)
		os.Exit(2)
	}

	runners := experiments.Registry()
	if *scen != "" {
		loaded, err := scenario.LoadSpecs(*scen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fstables:", err)
			os.Exit(2)
		}
		runners = runners[:0]
		for _, ls := range loaded {
			ls := ls
			if *seed != 0 {
				ls.Spec.Seed = *seed
			}
			if *allocFl != "" {
				runners = append(runners, experiments.Runner{
					ID:   "alloc:" + ls.Spec.Name,
					Desc: fmt.Sprintf("scenario %s: online %s allocation vs static targets", ls.Spec.Name, *allocFl),
					Run: func(experiments.Scale) experiments.Printable {
						res, err := experiments.RunScenarioAlloc(ls.Spec, ls.Dir, *allocFl)
						if err != nil {
							panic("fstables: " + err.Error())
						}
						return res
					},
				})
				continue
			}
			runners = append(runners, experiments.Runner{
				ID:   "scenario:" + ls.Spec.Name,
				Desc: fmt.Sprintf("scenario %s: FS vs PF/Vantage with counterfactual replay", ls.Spec.Name),
				Run: func(experiments.Scale) experiments.Printable {
					res, err := experiments.RunScenario(ls.Spec, ls.Dir)
					if err != nil {
						panic("fstables: " + err.Error())
					}
					return res
				},
			})
		}
	} else if *fig != "all" {
		r, err := experiments.ByID(strings.TrimSpace(*fig))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fstables:", err)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	opts := harness.Options{Timeout: *timeout}
	if *resume {
		j, err := harness.OpenJournal(*journal, journalScope(sc, *scen, *allocFl))
		if err != nil {
			fmt.Fprintln(os.Stderr, "fstables:", err)
			os.Exit(1)
		}
		defer j.Close()
		opts.Journal = j
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	desc := map[string]string{}
	tasks := make([]harness.Task, 0, len(runners))
	for _, r := range runners {
		r := r
		desc[r.ID] = r.Desc
		run := func() (interface{}, error) {
			if !*asJSON {
				fmt.Printf("==== %s — %s\n", r.ID, r.Desc)
			}
			return r.Run(sc), nil
		}
		if r.ID == *panicID {
			run = func() (interface{}, error) {
				if !*asJSON {
					fmt.Printf("==== %s — %s\n", r.ID, r.Desc)
				}
				panic("fstables: deliberate panic requested via -panic")
			}
		}
		tasks = append(tasks, harness.Task{ID: r.ID, Run: run})
	}

	opts.Report = func(res harness.Result) {
		switch {
		case res.Resumed:
			if *asJSON {
				return
			}
			fmt.Printf("==== %s — %s\n     already completed (journal); skipping\n\n", res.ID, desc[res.ID])
		case res.Err != nil:
			if !*asJSON {
				fmt.Printf("---- %s FAILED after %v\n\n", res.ID, res.Elapsed.Round(time.Millisecond))
			}
		default:
			p := res.Value.(experiments.Printable)
			if *asJSON {
				if err := enc.Encode(map[string]interface{}{
					"id": res.ID, "desc": desc[res.ID], "result": p,
				}); err != nil {
					fmt.Fprintln(os.Stderr, "fstables:", err)
					os.Exit(1)
				}
				return
			}
			p.Print(os.Stdout)
			if *plots {
				if pp, ok := p.(interface{ PrintPlots(w io.Writer) }); ok {
					pp.PrintPlots(os.Stdout)
				}
			}
			fmt.Printf("---- %s done in %v\n\n", res.ID, res.Elapsed.Round(time.Millisecond))
		}
	}

	summary := harness.RunAll(tasks, opts)
	prof.Stop() // flush profiles before any failure exit
	if !summary.OK() {
		summary.PrintFailures(os.Stderr)
		os.Exit(1)
	}
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
