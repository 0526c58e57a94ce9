// Command fscheck soaks the differential verification harness: it
// generates random scenarios from sequential seeds, runs each in lockstep
// against the naive oracle (internal/oracle) with invariant audits, and on
// the first divergence prints the failing seed, the shrunk minimal
// reproducer and its hex encoding, then exits 1. With zero findings it
// prints throughput statistics and exits 0. A usage error exits 2.
//
// Unlike `go test ./internal/difftest` — a fixed seed range sized for CI —
// fscheck is open-ended: leave it running for hours before a release, or
// point it at a reported seed or hex reproducer to replay a failure.
//
// Examples:
//
//	fscheck                         # 10,000 scenarios from seed 0
//	fscheck -seed 12345 -n 100000   # a different slice of the seed space
//	fscheck -duration 10m           # time-bounded soak from seed 0
//	fscheck -replay 00030f...       # replay one hex-encoded scenario
//	fscheck -selftest               # prove detection via an injected bug
//
// -n is rejected with -duration, and any other flag with -replay or -selftest.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fscache/internal/difftest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one soak, replay or selftest and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fscheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 0, "first scenario seed")
		n        = fs.Uint64("n", 10000, "number of scenarios to run")
		duration = fs.Duration("duration", 0, "run for this long instead of a fixed count")
		replay   = fs.String("replay", "", "replay one hex-encoded scenario and exit")
		selftest = fs.Bool("selftest", false, "inject an off-by-one into the ranker and require detection")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var conflict error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case conflict != nil:
		case *replay != "" && f.Name != "replay", *selftest && f.Name != "selftest":
			conflict = fmt.Errorf("-%s does not apply with -replay or -selftest, which run alone", f.Name)
		case *duration > 0 && f.Name == "n":
			conflict = errors.New("-n does not apply with -duration")
		}
	})
	if conflict != nil {
		fmt.Fprintln(stderr, "fscheck:", conflict)
		return 2
	}

	if *replay != "" {
		s, err := difftest.DecodeHex(*replay)
		if err != nil {
			fmt.Fprintln(stderr, "fscheck:", err)
			return 2
		}
		fmt.Fprint(stdout, s.Describe())
		if d := difftest.RunScenario(s, difftest.Options{}); d != nil {
			fmt.Fprintln(stdout, d)
			return 1
		}
		fmt.Fprintln(stdout, "fscheck: scenario runs in lockstep, no divergence")
		return 0
	}
	if *selftest {
		return runSelftest(stdout, stderr)
	}

	var opt difftest.Options
	start := time.Now()
	ran, accesses := uint64(0), 0
	done := func() bool { return ran >= *n }
	if *duration > 0 {
		done = func() bool { return time.Since(start) > *duration }
	}
	for s := *seed; !done(); s++ {
		sc := difftest.Generate(s)
		if d := difftest.RunScenario(sc, opt); d != nil {
			report(stdout, s, sc, d, opt)
			return 1
		}
		ran++
		accesses += sc.Accesses()
	}
	el := time.Since(start)
	fmt.Fprintf(stdout, "fscheck: %d scenarios (%d accesses) in %v, no divergence (%.0f scenarios/s)\n",
		ran, accesses, el.Round(time.Millisecond), float64(ran)/el.Seconds())
	return 0
}

// report prints everything needed to reproduce a divergence: the seed, the
// raw divergence, and the shrunk reproducer with its replayable hex form.
func report(w io.Writer, seed uint64, s *difftest.Scenario, d *difftest.Divergence, opt difftest.Options) {
	fmt.Fprintf(w, "fscheck: FAILING SEED %d\n%v\n", seed, d)
	shrunk, sd := difftest.Shrink(s, opt)
	if sd == nil {
		fmt.Fprintln(w, "fscheck: shrinking lost the divergence; original scenario:")
		fmt.Fprint(w, s.Describe())
		fmt.Fprintf(w, "replay: fscheck -replay %s\n", difftest.EncodeHex(s))
		return
	}
	fmt.Fprintf(w, "shrunk to %d ops (%d accesses): %v\n", len(shrunk.Ops), shrunk.Accesses(), sd)
	fmt.Fprint(w, shrunk.Describe())
	fmt.Fprintf(w, "replay: fscheck -replay %s\n", difftest.EncodeHex(shrunk))
}

// runSelftest proves the harness detects real defects: with an off-by-one
// injected into the decision ranker, a seed sweep must diverge quickly.
func runSelftest(stdout, stderr io.Writer) int {
	opt := difftest.Options{WrapRanker: difftest.MutateOffByOne}
	for s := uint64(0); s < 1000; s++ {
		sc := difftest.Generate(s)
		if d := difftest.RunScenario(sc, opt); d != nil {
			fmt.Fprintf(stdout, "fscheck: selftest ok — injected off-by-one caught at seed %d: %v\n", s, d)
			shrunk, sd := difftest.Shrink(sc, opt)
			if sd != nil {
				fmt.Fprintf(stdout, "shrunk to %d ops (%d accesses)\n%s", len(shrunk.Ops), shrunk.Accesses(), shrunk.Describe())
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "fscheck: selftest FAILED — injected bug not detected in 1000 scenarios")
	return 1
}
