package main

import (
	"time"

	"fscache/internal/xrand"
)

// Backoff computes deterministic retry delays: attempt n (1-based) waits
// retryBase << (n-1), capped at retryMax, spread by seeded jitter so a
// fleet of clients retrying the same overloaded server does not arrive in
// lockstep. The delay is scaled by a factor drawn uniformly from
// [1-retryJitter, 1+retryJitter) out of an xrand stream, so a given seed
// yields the same retry schedule every run — a faulted load-generator rerun
// is bit-for-bit reproducible, network and all.
type Backoff struct {
	rng *xrand.Rand
}

// NewBackoff builds a schedule whose jitter is drawn from seed.
func NewBackoff(seed uint64) *Backoff {
	return &Backoff{rng: xrand.New(seed)}
}

// nominal is attempt n's delay before jitter. Attempts past the cap all
// return retryMax, so a deep attempt cannot overflow.
func nominal(attempt int) time.Duration {
	d := retryBase
	for i := 1; i < attempt && d < retryMax; i++ {
		d <<= 1
	}
	return min(d, retryMax)
}

// Delay returns the wait before retry attempt n (1-based).
func (b *Backoff) Delay(attempt int) time.Duration {
	// Uniform in [1-retryJitter, 1+retryJitter).
	f := 1 - retryJitter + 2*retryJitter*b.rng.Float64()
	return time.Duration(float64(nominal(attempt)) * f)
}
