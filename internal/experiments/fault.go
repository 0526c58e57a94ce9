package experiments

import (
	"io"
	"strconv"

	"fscache/internal/faultinject"
	"fscache/internal/futility"
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

// faultTransientFrac sizes the active-fault window for the windowed classes
// (candidate truncation and trace faults) as a fraction of the cache size.
const faultTransientFrac = 0.5

// FaultRow reports one fault class's injection and recovery.
type FaultRow struct {
	Class faultinject.Class
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
	classes := faultinject.Classes()
	rows := make([]FaultRow, len(classes))
	parallelFor(len(classes), func(i int) {
		rows[i] = runFaultCase(scale, classes[i])
	})
	res.Rows = rows
	return res
}

func runFaultCase(scale Scale, class faultinject.Class) FaultRow {
	lines := scale.AnalyticLines
	targets := splitTargets(lines, 0.7)

	// Always wrap the generators so clean and faulted phases share one
	// stream; zero rates draw nothing from the fault rng.
	gens := mcfPair(scale, "ablfault")
	faulty := make([]*faultinject.FaultyGenerator, len(gens))
	for i := range gens {
		faulty[i] = faultinject.NewFaultyGenerator(gens[i],
			seedStream(scale.Seed, "ablfault-f"+string(rune('0'+i))+string(class)),
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
			Seed:   seedStream(scale.Seed, "ablfault-"+string(class)),
		},
		targets: targets,
		insert:  []float64{0.5, 0.5},
		gens:    gens,
		seed:    seedStream(scale.Seed, "ablfault-drv-"+string(class)),
	}.converge()
	row := FaultRow{Class: class, PreErr: occErr(b.Cache.Sizes(), targets)}

	// Inject. Windowed classes keep the fault active for a transient
	// window; point classes corrupt state once.
	inj := faultinject.NewInjector(seedStream(scale.Seed, "ablfault-inj-"+string(class)), faultinject.Targets{
		Coarse:   b.Coarse,
		Feedback: b.FSFeedback,
		Cache:    b.Cache,
	})
	tracker := faultinject.NewRecoveryTracker(targets, FaultEps)
	window := 0
	// hold re-applies a stuck-at fault before each insertion of the
	// transient window. A single forced write to a controller register is
	// corrected within one feedback interval (l=16 events) — too fast to
	// even leave the ε band — so the alpha classes model a register stuck
	// at the extreme until the window ends.
	var hold func()
	switch class {
	case faultinject.ClassTSFlip:
		inj.FlipTimestamps(0.5)
	case faultinject.ClassAlphaMax:
		hold = func() { inj.ForceAlphaMax(0) }
		window = int(faultTransientFrac * float64(lines))
	case faultinject.ClassAlphaMin:
		// The floor is adversarial for the small partition: its converged α
		// is high (it must evict aggressively to hold 0.3 of the cache under
		// 0.5 of the insertions), so sticking it at 1 makes it balloon and
		// starve partition 0. Partition 0's converged α is already near 1.
		hold = func() { inj.ForceAlphaMin(1) }
		window = int(faultTransientFrac * float64(lines))
	case faultinject.ClassCandTrunc:
		inj.TruncateCandidates(2)
		window = int(faultTransientFrac * float64(lines))
	case faultinject.ClassTraceDrop:
		setFaultRates(faulty, faultinject.TraceFaults{Drop: 0.5})
		window = int(faultTransientFrac * float64(lines))
	case faultinject.ClassTraceDup:
		setFaultRates(faulty, faultinject.TraceFaults{Dup: 0.5})
		window = int(faultTransientFrac * float64(lines))
	case faultinject.ClassTraceCorrupt:
		setFaultRates(faulty, faultinject.TraceFaults{Corrupt: 0.5})
		window = int(faultTransientFrac * float64(lines))
	default:
		panic("experiments: unknown fault class " + string(class))
	}

	budget := scale.Insertions / 4
	if budget <= window {
		budget = 2 * window
	}
	for i := 0; i < budget; i++ {
		if window > 0 && i == window {
			// End of the transient: clear the standing fault.
			switch class {
			case faultinject.ClassCandTrunc:
				inj.StopTruncation()
			case faultinject.ClassAlphaMax, faultinject.ClassAlphaMin:
				hold = nil
			default:
				setFaultRates(faulty, faultinject.TraceFaults{})
			}
		}
		if hold != nil && i < window {
			hold()
		}
		d.insert()
		tracker.Observe(b.Cache.Sizes())
	}

	row.MaxDev = tracker.MaxDeviation()
	row.RecoverIns = tracker.SettleObservations()
	if interval := b.FSFeedback.Interval(); row.RecoverIns > 0 && interval > 0 {
		row.RecoverIntervals = (row.RecoverIns + interval - 1) / interval
	}
	row.FinalErr = occErr(b.Cache.Sizes(), targets)
	row.Recovered = tracker.Recovered()
	return row
}

func setFaultRates(gens []*faultinject.FaultyGenerator, rates faultinject.TraceFaults) {
	for _, g := range gens {
		g.SetRates(rates)
	}
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
			string(row.Class), row.PreErr, row.MaxDev, ins, ivs, row.FinalErr, rec)
	}
}
