package shardcache

import (
	"sync"
	"sync/atomic"
	"time"
)

// Rebalancer is the background applier for the global target distributor:
// it runs Engine.Rebalance on a fixed ticker so feedback aggregation and
// target redistribution happen entirely off the access path. Serving layers
// (internal/server) and load generators (cmd/fsload) start one instead of
// hand-rolling a ticker goroutine.
//
// Staleness bound: between ticks the stripes run on the targets of the last
// pass, so per-stripe targets lag demand shifts by at most one interval
// (plus the duration of the pass itself). The feedback controllers tolerate
// this by construction — they converge toward whatever target they hold —
// so the interval trades redistribution responsiveness against distributor
// work; it never affects safety or the cache-wide target sum.
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

// TargetSource supplies externally computed global targets to a rebalancer.
// PollTargets, given the engine's cumulative access count, returns (targets,
// true) when a new per-partition line vector should be installed and (nil,
// false) when the current one stands. The online allocator (internal/alloc)
// satisfies this: the count closes its epochs, which recompute targets from
// live miss-ratio curves — closing the measurement→targets loop for the
// striped engine.
type TargetSource interface {
	PollTargets(accesses uint64) ([]int, bool)
}

// StartRebalancerSource launches a background goroutine that calls
// e.Rebalance every interval until Stop; interval must be positive. With a
// non-nil src each tick first installs freshly polled targets (if any), then
// runs the demand-weighted redistribution pass on whatever targets are in
// force. It polls with the access count the previous pass summed, so a
// source's epoch closes at most one tick late.
func (e *Engine) StartRebalancerSource(interval time.Duration, src TargetSource) *Rebalancer {
	if interval <= 0 {
		panic("shardcache: Rebalancer interval must be positive")
	}
	r := &Rebalancer{
		e:        e,
		src:      src,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	//fslint:ignore determinism background target distributor: redistribution cadence is wall-clock driven by design; deterministic runs drive the engine under the tests' barrier protocol (driver_test.go) instead
	go r.loop()
	return r
}

func (r *Rebalancer) loop() {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	var accesses uint64
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			if r.src != nil {
				if tg, ok := r.src.PollTargets(accesses); ok {
					r.e.SetTargets(tg)
					r.installs.Add(1)
				}
			}
			accesses = r.e.rebalance()
			r.passes.Add(1)
		}
	}
}

// Stop quiesces the rebalancer: it returns after the background goroutine
// has exited, with no pass in flight. Safe to call more than once.
func (r *Rebalancer) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// Rebalances returns the number of completed background passes.
func (r *Rebalancer) Rebalances() uint64 { return r.passes.Load() }

// Installs returns the number of target vectors installed from the source.
func (r *Rebalancer) Installs() uint64 { return r.installs.Load() }
