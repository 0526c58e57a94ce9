package main

import (
	"time"

	"fscache/internal/xrand"
)

// Backoff computes deterministic retry delays: attempt n (1-based) waits
// Base << (n-1), capped at Max, optionally spread by seeded jitter so a
// fleet of clients retrying the same overloaded server does not arrive in
// lockstep. With Jitter j the delay is scaled by a factor drawn uniformly
// from [1-j, 1+j) out of an xrand stream, so a given seed yields the same
// retry schedule every run — a faulted load-generator rerun is bit-for-bit
// reproducible, network and all.
type Backoff struct {
	base   time.Duration
	max    time.Duration
	jitter float64
	rng    *xrand.Rand // nil when jitter is zero
}

// NewBackoff builds a schedule. base is the first delay (zero means every
// delay is zero), max caps the exponential growth (zero means uncapped),
// jitter in [0, 1) spreads each delay, drawn from seed.
func NewBackoff(base, max time.Duration, jitter float64, seed uint64) *Backoff {
	if jitter < 0 || jitter >= 1 {
		panic("fsload: backoff jitter must be in [0, 1)")
	}
	b := &Backoff{base: base, max: max, jitter: jitter}
	if jitter > 0 {
		b.rng = xrand.New(seed)
	}
	return b
}

// Delay returns the wait before retry attempt n (1-based). Attempts past
// the cap all return Max (jittered); n < 1 returns 0.
func (b *Backoff) Delay(attempt int) time.Duration {
	if attempt < 1 || b.base <= 0 {
		return 0
	}
	d := b.base
	// Shift one step at a time so a deep attempt saturates at the cap (or
	// a safe ceiling) instead of overflowing the int64.
	for i := 1; i < attempt; i++ {
		if d > time.Hour || (b.max > 0 && d >= b.max) {
			break
		}
		d <<= 1
	}
	if b.max > 0 && d > b.max {
		d = b.max
	}
	if b.rng != nil {
		// Uniform in [1-jitter, 1+jitter).
		f := 1 - b.jitter + 2*b.jitter*b.rng.Float64()
		d = time.Duration(float64(d) * f)
	}
	return d
}
