package shardcache

// Batched access submission.
//
// Under contention an access's lock handshake dominates its replacement
// work: N goroutines on one stripe pay N cache-line bounces per N ops. A
// Batch amortizes the handshake. It groups N requests by stripe with a
// counting sort and takes each touched stripe's lock once for all of its
// requests. Access does their engine accesses itself; Each hands the caller
// one request at a time with its held stripe. Both hand each request's
// router hash to its stripe as Engine.Lock does, so H3 runs once a request.
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
	// counts[g] is the number of pending requests routed to stripe g, and
	// offsets[g] the end of their segment in order.
	counts  []int32
	offsets []int32
	// order holds request indices grouped by stripe: order[offsets[g]-
	// counts[g]:offsets[g]] are the indices (in submission order) of the
	// requests stripe g executes.
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
		offsets: make([]int32, len(e.stripes)),
	}
}

// group sorts reqs' indices by stripe into order, stripe g's in submission
// order at order[offsets[g]-counts[g]:offsets[g]].
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
	b.group(reqs)
	for g, n := range b.counts {
		if n > 0 {
			h := b.e.LockStripe(g)
			for _, j := range b.order[b.offsets[g]-n : b.offsets[g]] {
				results[j] = h.at(reqs[j].Addr, b.hash[j]).Access(reqs[j].Addr, reqs[j].Part)
			}
			h.Unlock()
		}
	}
}

// Each groups reqs as Access does and, under each touched stripe's one lock,
// calls f once a request j routed there, in submission order, with the held
// stripe already handed reqs[j]'s router hash: f's Lookup and Access of
// reqs[j].Addr hash nothing. f must not take a stripe lock.
func (b *Batch) Each(reqs []Access, f func(h Locked, j int32)) {
	b.group(reqs)
	for g, n := range b.counts {
		if n > 0 {
			h := b.e.LockStripe(g)
			for _, j := range b.order[b.offsets[g]-n : b.offsets[g]] {
				f(h.at(reqs[j].Addr, b.hash[j]), j)
			}
			h.Unlock()
		}
	}
}
