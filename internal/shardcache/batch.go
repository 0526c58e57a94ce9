package shardcache

// Batched access submission.
//
// Under contention an access's lock handshake dominates its replacement
// work: N goroutines on one stripe pay N cache-line bounces per N ops. A
// Batch amortizes the handshake. It groups N requests by stripe with a
// counting sort and takes each touched stripe's lock once for all of its
// requests, either doing their accesses itself (Access) or handing the held
// stripe to the caller (Each).
//
// Semantics: a batch is equivalent to its requests issued one at a time in
// batch order — same-stripe requests run in submission order under one lock
// hold, and requests on different stripes never contended in the first
// place. Access writes each result at its request's index
// (TestBatchMatchesSequential pins the equivalence).
//
// A Batch is owned by one goroutine (one server connection, one load
// worker). Its scratch is reused, so a warm Batch submits with zero
// allocations (TestBatchZeroAlloc, TestAllocFree/BatchAccess).

import "fscache/internal/core"

// Access is one cache access: an address and the partition it bills.
type Access struct {
	Addr uint64
	Part int
}

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
	// hash[i] is request i's router hash, kept from the count pass for the
	// scatter pass (its stripe) and for the stripe's array (its set), so the
	// H3 hash runs once per request.
	hash []uint64
}

// NewBatch returns an empty batch bound to e.
func (e *Engine) NewBatch() *Batch {
	return &Batch{
		e:       e,
		counts:  make([]int32, len(e.stripes)),
		offsets: make([]int32, len(e.stripes)+1),
	}
}

// group sorts reqs' indices by stripe into order, stripe g's in submission
// order at order[offsets[g-1]:offsets[g]] (from 0 for g == 0).
//
//fs:allocfree
func (b *Batch) group(reqs []Access) {
	if cap(b.order) < len(reqs) {
		//fslint:ignore allocfree cold growth: runs only when a batch exceeds every prior batch on this Batch; steady-state flushes reuse the scratch
		b.order = make([]int32, len(reqs))
		//fslint:ignore allocfree cold growth: paired with the order resize above
		b.hash = make([]uint64, len(reqs))
	}
	b.order = b.order[:len(reqs)]
	b.hash = b.hash[:len(reqs)]
	for g := range b.counts {
		b.counts[g] = 0
	}
	for i := range reqs {
		hash, g := b.e.route(reqs[i].Addr)
		b.hash[i] = hash
		b.counts[g]++
	}
	off := int32(0)
	for g, c := range b.counts {
		b.offsets[g] = off
		off += c
	}
	b.offsets[len(b.counts)] = off
	// Scatter: b.offsets[g] walks forward through stripe g's segment, so
	// same-stripe requests land in submission order and offsets[g] ends at
	// the segment's end.
	for i := range reqs {
		g := b.hash[i] >> b.e.stripeShift
		b.order[b.offsets[g]] = int32(i)
		b.offsets[g]++
	}
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
	b.group(reqs)
	lo := int32(0)
	for g := range b.counts {
		if hi := b.offsets[g]; hi > lo {
			st := e.stripes[g]
			countLock()
			st.mu.Lock()
			for _, i := range b.order[lo:hi] {
				st.array.Hashed(reqs[i].Addr, b.hash[i])
				results[i] = st.access(reqs[i].Addr, reqs[i].Part)
			}
			st.mu.Unlock()
			lo = hi
		}
	}
}

// Each groups reqs as Access does and calls f once for each stripe they
// route to, holding its lock, with the indices of its requests in submission
// order; f does their work through h. f must not take a stripe lock.
func (b *Batch) Each(reqs []Access, f func(h Locked, idx []int32)) {
	b.group(reqs)
	lo := int32(0)
	for g := range b.counts {
		if hi := b.offsets[g]; hi > lo {
			h := b.e.LockStripe(g)
			f(h, b.order[lo:hi])
			h.Unlock()
			lo = hi
		}
	}
}
