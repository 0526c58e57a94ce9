package experiments

import (
	"io"
	"strconv"

	"fscache/internal/faultinject"
	"fscache/internal/futility"
	"fscache/internal/stats"
	"fscache/internal/xrand"
)

// A4 — robustness ablation (DESIGN.md §9): the §V feedback controller is a
// closed loop, so the paper's sizing guarantee should survive state
// corruption, not just steady operation. For each fault class we converge a
// two-partition feedback-FS cache (targets 0.7/0.3, I = 0.5/0.5 — the A1
// configuration), inject the fault, and measure how far occupancy deviates
// and how many insertions the controller needs to pull every partition back
// within ε of target and keep it there.

// FaultEps is the relative occupancy band (±5% of target) a partition must
// re-enter, and stay in, to count as recovered.
const FaultEps = 0.05

// faultClasses lists A4's fault classes in reporting order; runFaultCase
// says what each injects. The names also seed each class's streams.
var faultClasses = []string{
	"ts-flip", "alpha-max", "alpha-min", "cand-trunc",
	"trace-drop", "trace-dup", "trace-corrupt",
}

// faultTransientFrac sizes the active-fault window for the windowed classes
// (candidate truncation and trace faults) as a fraction of the cache size.
const faultTransientFrac = 0.5

// FaultRow reports one fault class's injection and recovery.
type FaultRow struct {
	Class string
	// PreErr is the mean relative occupancy error just before injection.
	PreErr float64
	// MaxDev is the worst single-partition relative deviation observed
	// after injection.
	MaxDev float64
	// RecoverIns is the number of post-injection insertions until every
	// partition was back within FaultEps of target for good (0 = the band
	// was never left; -1 = did not recover within the budget).
	RecoverIns int
	// RecoverIntervals estimates RecoverIns in feedback-interval units
	// (each partition sees roughly one interval's worth of events per
	// l insertions at equal insertion pressure).
	RecoverIntervals int
	// FinalErr is the mean relative occupancy error at the end of the
	// recovery budget.
	FinalErr float64
	// Recovered reports whether the run ended inside the band.
	Recovered bool
}

// AblationFaultResult is the A4 sweep over every fault class.
type AblationFaultResult struct {
	Scale Scale
	Eps   float64
	Rows  []FaultRow
}

// AblationFault runs A4: inject each fault class into a converged
// feedback-FS cache and measure re-convergence (§V's self-correction
// claim under adversarial state, not just steady operation).
func AblationFault(scale Scale) AblationFaultResult {
	res := AblationFaultResult{Scale: scale, Eps: FaultEps}
	rows := make([]FaultRow, len(faultClasses))
	parallelFor(len(faultClasses), func(i int) {
		rows[i] = runFaultCase(scale, faultClasses[i])
	})
	res.Rows = rows
	return res
}

func runFaultCase(scale Scale, class string) FaultRow {
	lines := scale.AnalyticLines
	targets := splitTargets(lines, 0.7)

	// Always wrap the generators so clean and faulted phases share one
	// stream; zero rates draw nothing from the fault rng.
	gens := mcfPair(scale, "ablfault")
	faulty := make([]*faultinject.FaultyGenerator, len(gens))
	for i := range gens {
		faulty[i] = faultinject.NewFaultyGenerator(gens[i],
			seedStream(scale.Seed, "ablfault-f"+string(rune('0'+i))+class),
			faultinject.TraceFaults{})
		gens[i] = faulty[i]
	}
	b, d, _ := insertionCell{
		spec: CacheSpec{
			Lines:  lines,
			Array:  ArrayRandom16,
			Rank:   futility.CoarseLRU,
			Scheme: SchemeFS,
			Parts:  2,
			Seed:   seedStream(scale.Seed, "ablfault-"+class),
		},
		targets: targets,
		insert:  []float64{0.5, 0.5},
		gens:    gens,
		seed:    seedStream(scale.Seed, "ablfault-drv-"+class),
	}.converge()
	row := FaultRow{Class: class}
	row.PreErr, _ = stats.OccupancyError(b.Cache.Sizes(), targets)

	// Inject. A point class corrupts state once; a windowed class keeps its
	// fault up for a transient window, through hold (re-applied before each
	// insertion of the window) or until stop clears it.
	window := int(faultTransientFrac * float64(lines))
	var hold, stop func()
	setRates := func(rates faultinject.TraceFaults) {
		for _, g := range faulty {
			g.SetRates(rates)
		}
	}
	fb := b.FSFeedback
	switch class {
	case "ts-flip":
		// A soft error in the §V-A recency state: one random bit of the
		// coarse timestamp tag of each resident line, with probability ½.
		rng := xrand.New(seedStream(scale.Seed, "ablfault-inj-"+class))
		for line := 0; line < b.Coarse.Lines(); line++ {
			if b.Cache.Resident(line) && rng.Bool(0.5) {
				b.Coarse.FlipTimestampBit(line, uint(rng.Intn(8)))
			}
		}
		window = 0
	// A single forced write to a controller register is corrected within
	// one feedback interval (l=16 events), too fast to even leave the ε
	// band, so the alpha classes model a register stuck at an extreme.
	case "alpha-max":
		// Partition 0 looks maximally futile and is over-evicted.
		hold = func() { fb.ForceAlpha(0, fb.AlphaMax()) }
	case "alpha-min":
		// The floor is adversarial for the small partition: its converged α
		// is high (it must evict aggressively to hold 0.3 of the cache under
		// 0.5 of the insertions), so sticking it at 1 makes it balloon and
		// starve partition 0. Partition 0's converged α is already near 1.
		hold = func() { fb.ForceAlpha(1, 1) }
	case "cand-trunc":
		// A partially failed victim-selection tree delivers 2 candidates.
		b.Cache.SetCandidateFilter(func(l []int) []int { return l[:min(len(l), 2)] })
		stop = func() { b.Cache.SetCandidateFilter(nil) }
	case "trace-drop":
		setRates(faultinject.TraceFaults{Drop: 0.5})
		stop = func() { setRates(faultinject.TraceFaults{}) }
	case "trace-dup":
		setRates(faultinject.TraceFaults{Dup: 0.5})
		stop = func() { setRates(faultinject.TraceFaults{}) }
	case "trace-corrupt":
		setRates(faultinject.TraceFaults{Corrupt: 0.5})
		stop = func() { setRates(faultinject.TraceFaults{}) }
	default:
		panic("experiments: unknown fault class " + class)
	}

	budget := scale.Insertions / 4
	if budget <= window {
		budget = 2 * window
	}
	lastOutside := -1
	for i := 0; i < budget; i++ {
		if i == window && stop != nil {
			stop()
		}
		if i < window && hold != nil {
			hold()
		}
		d.insert()
		_, dev := stats.OccupancyError(b.Cache.Sizes(), targets)
		if dev > row.MaxDev {
			row.MaxDev = dev
		}
		if dev > FaultEps {
			lastOutside = i
		}
	}

	row.RecoverIns, row.Recovered = settle(lastOutside, budget)
	if interval := fb.Interval(); row.RecoverIns > 0 && interval > 0 {
		row.RecoverIntervals = (row.RecoverIns + interval - 1) / interval
	}
	row.FinalErr, _ = stats.OccupancyError(b.Cache.Sizes(), targets)
	return row
}

// settle is A4's recovery rule over n post-injection insertions, the last
// of them outside the ε band at index lastOutside (-1: none was). It
// returns the insertions it took to re-enter the band for good (0 if the
// band was never left) and whether the run ended inside it; a run that
// ended outside returns -1, false.
func settle(lastOutside, n int) (ins int, recovered bool) {
	if lastOutside == n-1 {
		return -1, false
	}
	return lastOutside + 1, true
}

// Print renders A4.
func (r AblationFaultResult) Print(w io.Writer) {
	fprintf(w, "Ablation A4 (%s scale): fault injection into feedback FS (targets 0.7/0.3, I 0.5/0.5, ε=%.0f%%)\n",
		r.Scale.Name, r.Eps*100)
	fprintf(w, "%-14s %8s %8s %11s %10s %8s %10s\n",
		"fault", "preErr", "maxDev", "recoverIns", "intervals", "finalErr", "recovered")
	for _, row := range r.Rows {
		rec := "yes"
		if !row.Recovered {
			rec = "NO"
		}
		ins := "—"
		ivs := "—"
		if row.RecoverIns >= 0 {
			ins = strconv.Itoa(row.RecoverIns)
			ivs = strconv.Itoa(row.RecoverIntervals)
		}
		fprintf(w, "%-14s %8.3f %8.3f %11s %10s %8.3f %10s\n",
			row.Class, row.PreErr, row.MaxDev, ins, ivs, row.FinalErr, rec)
	}
}
