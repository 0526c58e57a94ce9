// Package faultinject wraps the two streams through which input enters the
// system with seeded faults:
//
//   - FaultyGenerator wraps a trace.Generator and drops, duplicates or
//     corrupts trace records at the rates a TraceFaults sets (the abl-fault
//     experiment's trace classes);
//   - NetInjector wraps connections and listeners and resets them, tears
//     their writes, corrupts frame length prefixes or stalls their reads at
//     the rates a NetFaults sets (fsserve -faults, fsload -faults and the
//     server's soak tests).
//
// Every fault is drawn from an internal/xrand stream, so a faulted run is as
// reproducible as a clean one: the same seed injects the same faults at the
// same points.
package faultinject

import (
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

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
