// Package faultinject perturbs a running simulation's state to test the
// paper's central stability claim: the §V feedback controller is
// self-correcting, so after any disturbance the scaling factors must pull
// the partition sizes back to their targets.
//
// Every fault is drawn from an internal/xrand stream, so a faulted run is
// exactly as reproducible as a clean one — two runs with the same seed
// inject the same faults at the same points and recover along the same
// trajectory. The package covers four state surfaces:
//
//   - coarse 8-bit timestamp tags (soft errors in the §V-A recency state),
//     via futility.CoarseTS.FlipTimestampBit;
//   - feedback-controller registers (forcing scaling factors to their
//     min/max extremes mid-run), via core.FSFeedback.ForceAlpha;
//   - the eviction candidate list (a partially failed victim-selection
//     tree), via core.Cache.SetCandidateFilter;
//   - the input access stream (dropped, duplicated and corrupted trace
//     records), via FaultyGenerator.
//
// RecoveryTracker turns the aftermath into the §V robustness metric:
// how many observations (and feedback intervals) until every partition's
// occupancy is back within ε of its target, and stays there.
package faultinject

import (
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/stats"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// Class names an injectable fault class.
type Class string

// The fault classes exercised by the abl-fault experiment.
const (
	// ClassTSFlip flips a random bit in the coarse timestamp tag of a
	// random fraction of resident lines.
	ClassTSFlip Class = "ts-flip"
	// ClassAlphaMax forces a partition's scaling factor to AlphaMax: its
	// lines look maximally futile and the partition is over-evicted.
	ClassAlphaMax Class = "alpha-max"
	// ClassAlphaMin forces a partition's scaling factor to the floor 1:
	// the partition under-evicts and balloons past its target.
	ClassAlphaMin Class = "alpha-min"
	// ClassCandTrunc truncates the candidate list the scheme sees for a
	// window of insertions.
	ClassCandTrunc Class = "cand-trunc"
	// ClassTraceDrop drops trace records for a window.
	ClassTraceDrop Class = "trace-drop"
	// ClassTraceDup duplicates trace records for a window.
	ClassTraceDup Class = "trace-dup"
	// ClassTraceCorrupt flips address bits of trace records for a window.
	ClassTraceCorrupt Class = "trace-corrupt"
)

// Classes returns every fault class in reporting order.
func Classes() []Class {
	return []Class{
		ClassTSFlip, ClassAlphaMax, ClassAlphaMin, ClassCandTrunc,
		ClassTraceDrop, ClassTraceDup, ClassTraceCorrupt,
	}
}

// Targets collects the state handles an Injector may perturb. Any handle
// may be nil; injecting a fault whose target is missing panics, since it
// is an experiment wiring error, not a runtime condition.
type Targets struct {
	// Coarse is the decision ranker's coarse-timestamp state.
	Coarse *futility.CoarseTS
	// Feedback is the §V controller.
	Feedback *core.FSFeedback
	// Cache is the controller owning the candidate path and residency.
	Cache *core.Cache
}

// Injector applies seeded faults to a running simulation's state.
type Injector struct {
	rng *xrand.Rand
	t   Targets
}

// NewInjector builds an injector over the given targets; seed drives every
// random choice the injector makes.
func NewInjector(seed uint64, t Targets) *Injector {
	return &Injector{rng: xrand.New(seed), t: t}
}

// FlipTimestamps flips one random bit in the timestamp tag of each
// resident line with probability frac, returning the number of flips. The
// cache says which lines are resident.
func (in *Injector) FlipTimestamps(frac float64) int {
	if in.t.Coarse == nil || in.t.Cache == nil {
		panic("faultinject: FlipTimestamps with no coarse ranker or cache bound")
	}
	if frac < 0 || frac > 1 {
		panic("faultinject: FlipTimestamps fraction out of [0, 1]")
	}
	flips := 0
	for line := 0; line < in.t.Coarse.Lines(); line++ {
		if in.t.Cache.Resident(line) && in.rng.Bool(frac) {
			in.t.Coarse.FlipTimestampBit(line, uint(in.rng.Intn(8)))
			flips++
		}
	}
	return flips
}

// ForceAlphaMax forces partition part's scaling factor to its cap.
func (in *Injector) ForceAlphaMax(part int) {
	if in.t.Feedback == nil {
		panic("faultinject: ForceAlphaMax with no feedback controller bound")
	}
	in.t.Feedback.ForceAlpha(part, in.t.Feedback.AlphaMax())
}

// ForceAlphaMin forces partition part's scaling factor to the floor 1.
func (in *Injector) ForceAlphaMin(part int) {
	if in.t.Feedback == nil {
		panic("faultinject: ForceAlphaMin with no feedback controller bound")
	}
	in.t.Feedback.ForceAlpha(part, 1)
}

// TruncateCandidates installs a filter that cuts every candidate list down
// to its first keep lines (keep >= 1) before any is ranked. The truncation
// stays active until StopTruncation.
func (in *Injector) TruncateCandidates(keep int) {
	if in.t.Cache == nil {
		panic("faultinject: TruncateCandidates with no cache bound")
	}
	if keep < 1 {
		panic("faultinject: TruncateCandidates needs keep >= 1")
	}
	in.t.Cache.SetCandidateFilter(func(lines []int) []int {
		if len(lines) > keep {
			lines = lines[:keep]
		}
		return lines
	})
}

// StopTruncation removes any installed candidate filter.
func (in *Injector) StopTruncation() {
	if in.t.Cache == nil {
		panic("faultinject: StopTruncation with no cache bound")
	}
	in.t.Cache.SetCandidateFilter(nil)
}

// TraceFaults configures per-record fault probabilities for a
// FaultyGenerator. Each must be in [0, 1); Drop strictly below 1 so the
// generator always terminates.
type TraceFaults struct {
	// Drop is the probability a record is silently discarded.
	Drop float64
	// Dup is the probability a record is delivered twice.
	Dup float64
	// Corrupt is the probability a random low address bit is flipped.
	Corrupt float64
}

func (f TraceFaults) validate() {
	for _, p := range []float64{f.Drop, f.Dup, f.Corrupt} {
		if p < 0 || p >= 1 {
			panic("faultinject: trace fault probabilities must be in [0, 1)")
		}
	}
}

// FaultyGenerator wraps a trace.Generator with seeded record-level faults:
// drops, duplicates, and address-bit corruption. Zero rates pass the
// stream through unchanged (modulo the rng draws, which are themselves
// deterministic), so a single wrapped generator can run clean, fault for a
// window, and run clean again.
type FaultyGenerator struct {
	inner   trace.Generator
	rng     *xrand.Rand
	rates   TraceFaults
	pending *trace.Access

	// Dropped, Duplicated and Corrupted count faults delivered so far.
	Dropped, Duplicated, Corrupted uint64
}

// NewFaultyGenerator wraps inner; seed drives the fault stream only, so
// the wrapped stream's content is independent of the inner generator's
// own seeding.
func NewFaultyGenerator(inner trace.Generator, seed uint64, rates TraceFaults) *FaultyGenerator {
	rates.validate()
	if inner == nil {
		panic("faultinject: FaultyGenerator needs an inner generator")
	}
	return &FaultyGenerator{inner: inner, rng: xrand.New(seed), rates: rates}
}

// SetRates swaps the fault probabilities; zeroing them ends the fault
// window.
func (g *FaultyGenerator) SetRates(rates TraceFaults) {
	rates.validate()
	g.rates = rates
}

// Next implements trace.Generator.
func (g *FaultyGenerator) Next() trace.Access {
	if g.pending != nil {
		a := *g.pending
		g.pending = nil
		return a
	}
	for {
		a := g.inner.Next()
		if g.rates.Drop > 0 && g.rng.Bool(g.rates.Drop) {
			g.Dropped++
			continue
		}
		if g.rates.Corrupt > 0 && g.rng.Bool(g.rates.Corrupt) {
			a.Addr ^= uint64(1) << uint(g.rng.Intn(20))
			g.Corrupted++
		}
		if g.rates.Dup > 0 && g.rng.Bool(g.rates.Dup) {
			dup := a
			g.pending = &dup
			g.Duplicated++
		}
		return a
	}
}

// RecoveryTracker measures how long a faulted simulation takes to bring
// every partition's occupancy back within eps·target of its target — and
// keep it there. Arm it at injection time, then Observe the live sizes at
// a fixed cadence (the experiments observe once per insertion).
type RecoveryTracker struct {
	targets []int
	eps     float64

	observations int
	lastOutside  int // observation index of the last out-of-band sample
	everOutside  bool
	maxDev       float64
}

// NewRecoveryTracker builds a tracker for the given targets; partitions
// with non-positive targets are ignored. eps is the relative band
// half-width (e.g. 0.05 for ±5%).
func NewRecoveryTracker(targets []int, eps float64) *RecoveryTracker {
	if eps <= 0 {
		panic("faultinject: RecoveryTracker needs a positive eps")
	}
	return &RecoveryTracker{
		targets:     append([]int(nil), targets...),
		eps:         eps,
		lastOutside: -1,
	}
}

// Observe records one post-injection sample of the live partition sizes.
func (t *RecoveryTracker) Observe(sizes []int) {
	if len(sizes) < len(t.targets) {
		panic("faultinject: Observe sizes shorter than targets")
	}
	_, dev := stats.OccupancyError(sizes, t.targets)
	if dev > t.maxDev {
		t.maxDev = dev
	}
	if dev > t.eps {
		t.lastOutside = t.observations
		t.everOutside = true
	}
	t.observations++
}

// MaxDeviation returns the largest relative deviation observed since Arm.
func (t *RecoveryTracker) MaxDeviation() float64 { return t.maxDev }

// Disturbed reports whether any observation left the ε band at all.
func (t *RecoveryTracker) Disturbed() bool { return t.everOutside }

// Recovered reports whether the last observation window ended inside the
// ε band (i.e. the system settled rather than being caught mid-excursion).
func (t *RecoveryTracker) Recovered() bool {
	return t.observations > 0 && t.lastOutside < t.observations-1
}

// SettleObservations returns how many observations it took to re-enter
// the ε band for good: 0 if the band was never left, -1 if the run ended
// outside the band.
func (t *RecoveryTracker) SettleObservations() int {
	if !t.Recovered() {
		return -1
	}
	return t.lastOutside + 1
}
