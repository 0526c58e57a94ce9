package shardcache

import (
	"sync"
	"sync/atomic"
	"time"
)

// Rebalancer polls a TargetSource on a fixed ticker and installs the
// targets it offers with Engine.SetTargets, so retargeting happens entirely
// off the access path. Serving layers (internal/server) and load generators
// (cmd/fsload) start one instead of hand-rolling a ticker goroutine.
//
// Staleness bound: between ticks the stripes run on the last installed
// targets, so an install lags the source's decision by at most one interval
// (plus the install itself). The feedback controllers converge toward
// whatever target they hold, so the interval trades responsiveness against
// polling work; it never affects safety or the cache-wide target sum.
type Rebalancer struct {
	e        *Engine
	src      TargetSource
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	passes   atomic.Uint64
	installs atomic.Uint64
}

// TargetSource supplies cache-wide targets to a rebalancer. PollTargets,
// given the engine's cumulative access count, returns (targets, true) when a
// new per-partition line vector should be installed and (nil, false) when
// the current one stands. The online allocator (internal/alloc) satisfies
// this: the count closes its epochs, which recompute targets from live
// miss-ratio curves — closing the measurement→targets loop for the striped
// engine.
type TargetSource interface {
	PollTargets(accesses uint64) ([]int, bool)
}

// StartRebalancerSource launches a background goroutine that, every
// interval until Stop, sums the engine's access count, polls src with it and
// installs any targets src returns. interval must be positive and src
// non-nil.
func (e *Engine) StartRebalancerSource(interval time.Duration, src TargetSource) *Rebalancer {
	if interval <= 0 {
		panic("shardcache: Rebalancer interval must be positive")
	}
	if src == nil {
		panic("shardcache: Rebalancer needs a TargetSource")
	}
	r := &Rebalancer{
		e:        e,
		src:      src,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	//fslint:ignore determinism background target polling: the cadence is wall-clock driven by design; deterministic runs drive the engine under the tests' stripe-ownership protocol (driver_test.go) instead
	go r.loop()
	return r
}

func (r *Rebalancer) loop() {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			if tg, ok := r.src.PollTargets(r.e.accesses()); ok {
				r.e.SetTargets(tg)
				r.installs.Add(1)
			}
			r.passes.Add(1)
		}
	}
}

// Stop quiesces the rebalancer: it returns after the background goroutine
// has exited, with no poll in flight. Safe to call more than once.
func (r *Rebalancer) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// Rebalances returns the number of completed ticks, each one poll.
func (r *Rebalancer) Rebalances() uint64 { return r.passes.Load() }

// Installs returns the number of target vectors installed from the source.
func (r *Rebalancer) Installs() uint64 { return r.installs.Load() }
