package shardcache

// Batched access submission.
//
// The concurrent engine's per-access cost has two parts: the replacement
// work itself and the lock handshake around it. Under contention the
// handshake dominates — every Access is one Lock/Unlock on a stripe mutex,
// and N goroutines hammering the same stripe pay N cache-line bounces per N
// ops. A Batch amortizes the handshake: the caller accumulates N requests,
// Flush groups them by stripe with a counting sort, and each non-empty
// stripe's lock is then taken exactly once for all of its requests.
//
// Semantics: a flushed batch is equivalent to issuing its requests with
// plain Access calls in batch order — requests routed to the same stripe
// execute in their submission order under one lock hold, and requests on
// different stripes never contended with each other in the first place.
// Results land at the same index the request was added at, so callers match
// them positionally. The equivalence is pinned by TestBatchMatchesSequential.
//
// A Batch is owned by one goroutine (one server connection, one load
// worker); distinct goroutines use distinct Batches against the same
// engine. All scratch is reused across flushes, so a warm Batch submits
// with zero allocations (the steady-state contract, enforced by
// TestBatchZeroAlloc and TestAllocFree/BatchAccess).

import (
	"fscache/internal/core"
	"fscache/internal/trace"
)

// Batch groups accesses by stripe so one lock acquisition covers every
// request routed to that stripe. Not safe for concurrent use; create one
// per goroutine with Engine.NewBatch.
type Batch struct {
	e *Engine
	// counts[g] is the number of pending requests routed to stripe g;
	// offsets[g] is the running start of stripe g's segment in order.
	counts  []int32
	offsets []int32
	// order holds request indices grouped by stripe: order[offsets[g]:
	// offsets[g+1]] are the indices (in submission order) of the requests
	// stripe g executes.
	order []int32
	// route[i] caches the stripe index of request i between the count and
	// scatter passes, so the H3 hash runs once per request.
	route []int32
}

// NewBatch returns an empty batch bound to e.
func (e *Engine) NewBatch() *Batch {
	return &Batch{
		e:       e,
		counts:  make([]int32, len(e.stripes)),
		offsets: make([]int32, len(e.stripes)+1),
	}
}

// grow resizes the per-request scratch to hold n requests. Cold: it runs
// only when a batch is larger than every batch before it.
func (b *Batch) grow(n int) {
	//fslint:ignore allocfree cold growth: runs only when a batch exceeds every prior batch on this Batch; steady-state flushes reuse the scratch
	b.order = make([]int32, n)
	//fslint:ignore allocfree cold growth: paired with the order resize above
	b.route = make([]int32, n)
}

// Access executes reqs as one batched submission and writes each request's
// result to the same index in results. len(results) must be at least
// len(reqs). It is equivalent to calling e.Access(reqs[i].Addr,
// reqs[i].Part) for i in order, but acquires each stripe's lock at most
// once.
//
//fs:allocfree
func (b *Batch) Access(reqs []Access, results []core.AccessResult) {
	if len(results) < len(reqs) {
		panic("shardcache: Batch.Access results shorter than requests")
	}
	e := b.e
	if len(reqs) == 0 {
		return
	}
	if cap(b.order) < len(reqs) {
		//fslint:ignore allocfree cold growth: the compiler inlines grow and reports its makes at this call site
		b.grow(len(reqs))
	}
	b.order = b.order[:len(reqs)]
	b.route = b.route[:len(reqs)]
	for g := range b.counts {
		b.counts[g] = 0
	}
	for i := range reqs {
		g := e.stripeOf(reqs[i].Addr)
		b.route[i] = int32(g)
		b.counts[g]++
	}
	off := int32(0)
	for g, c := range b.counts {
		b.offsets[g] = off
		off += c
	}
	b.offsets[len(b.counts)] = off
	// Scatter: b.offsets[g] walks forward through stripe g's segment, so
	// same-stripe requests land in submission order.
	for i := range reqs {
		g := b.route[i]
		b.order[b.offsets[g]] = int32(i)
		b.offsets[g]++
	}
	// After the scatter, offsets[g] is the *end* of stripe g's segment and
	// the segment start is offsets[g-1] (0 for g==0).
	lo := int32(0)
	for g := range b.counts {
		hi := b.offsets[g]
		if hi == lo {
			continue
		}
		st := e.stripes[g]
		st.mu.Lock()
		for _, i := range b.order[lo:hi] {
			r := &reqs[i]
			res := st.cache.Access(r.Addr, r.Part, trace.NoNextUse)
			if !res.Hit {
				st.demand[r.Part]++ // see Engine.Access on insertion demand
			}
			e.globalLines(&res, g)
			results[i] = res
		}
		st.mu.Unlock()
		lo = hi
	}
}
