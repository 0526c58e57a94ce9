//go:build fscount

package shardcache

import (
	"testing"

	"fscache/internal/core"
	"fscache/internal/hashing"
	"fscache/internal/xrand"
)

// TestCounted pins the stripe locks and the H3 evaluations each access path
// takes, counted by the fscount build. Locks: one per Access and per Locked
// handle, and one per stripe a batch touches, however many of its requests
// share it; a Snapshot, a PartSizes, a SetTargets or a Rebalance reads every
// stripe once. H3: the router's one per request, whose hash the stripe's
// array takes its set from (Lookup, Candidates and Install's set check all
// reuse it), so 1 a hit or a miss, 1 a Lookup then an Access of the address
// a Lock routed, 1 a request a Batch.Each callback looks up, and n for n
// requests to one address. Each row starts from stripes that last indexed
// another address.
//
//	go test -tags fscount -run Counted ./internal/shardcache
func TestCounted(t *testing.T) {
	e := stripedEngine()
	pool := residentAccesses(e)
	b := e.NewBatch()
	results := make([]core.AccessResult, len(pool))
	touched := func(reqs []Access) int {
		seen := map[int]bool{}
		for _, a := range reqs {
			seen[e.stripeOf(a.Addr)] = true
		}
		return len(seen)
	}
	absent, elsewhere := xrand.Mix64(1<<40), xrand.Mix64(1<<41)
	if h := e.Lock(absent); h.Lookup(absent) >= 0 {
		t.Fatalf("%#x is resident", absent)
	} else {
		h.Unlock()
	}
	// forget has every stripe index an address no row uses.
	forget := func() {
		for g := range e.stripes {
			h := e.LockStripe(g)
			h.Lookup(elsewhere)
			h.Unlock()
		}
	}
	for _, row := range []struct {
		name      string
		locks, h3 int
		op        func()
	}{
		{"Access", 1, 1, func() { e.Access(pool[0].Addr, pool[0].Part) }},
		{"AccessMiss", 1, 1, func() { e.Access(absent, 0) }},
		{"Lock", 1, 1, func() {
			h := e.Lock(pool[1].Addr)
			h.Lookup(pool[1].Addr)
			h.Access(pool[1].Addr, pool[1].Part)
			h.Unlock()
		}},
		{"BatchAccess", touched(pool[:16]), 16, func() { b.Access(pool[:16], results) }},
		{"BatchEach", touched(pool[16:48]), 32, func() {
			b.Each(pool[16:48], func(h Locked, j int32) { h.Lookup(pool[16+j].Addr) })
		}},
		{"BatchOneStripe", 1, 3, func() { b.Access([]Access{pool[2], pool[2], pool[2]}, results) }},
		{"Snapshot", len(e.stripes), 0, func() { e.Snapshot() }},
		{"PartSizes", len(e.stripes), 0, func() { e.PartSizes(nil) }},
		{"SetTargets", len(e.stripes), 0, func() { e.SetTargets(e.Targets()) }},
		{"Rebalance", len(e.stripes), 0, func() { e.Rebalance() }},
	} {
		forget()
		locks, evals := StripeLocks(), hashing.H3Evals()
		row.op()
		if got := int(StripeLocks() - locks); got != row.locks {
			t.Errorf("%s: %d stripe locks, want %d", row.name, got, row.locks)
		}
		if got := int(hashing.H3Evals() - evals); got != row.h3 {
			t.Errorf("%s: %d H3 evaluations, want %d", row.name, got, row.h3)
		}
	}
}
