//go:build fscount

package shardcache

import (
	"testing"

	"fscache/internal/core"
)

// TestCounted pins the stripe locks each access path takes, counted by the
// fscount build: one per Access and per Locked handle, and one per stripe a
// batch touches, however many of its requests share it. A Snapshot or a
// PartSizes reads every stripe once.
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
	for _, row := range []struct {
		name string
		want int
		op   func()
	}{
		{"Access", 1, func() { e.Access(pool[0].Addr, pool[0].Part) }},
		{"Lock", 1, func() {
			h := e.Lock(pool[1].Addr)
			h.Lookup(pool[1].Addr)
			h.Access(pool[1].Addr, pool[1].Part)
			h.Unlock()
		}},
		{"BatchAccess", touched(pool[:16]), func() { b.Access(pool[:16], results) }},
		{"BatchEach", touched(pool[16:48]), func() { b.Each(pool[16:48], func(Locked, []int32) {}) }},
		{"BatchOneStripe", 1, func() { b.Access([]Access{pool[2], pool[2], pool[2]}, results) }},
		{"Snapshot", len(e.stripes), func() { e.Snapshot() }},
		{"PartSizes", len(e.stripes), func() { e.PartSizes(nil) }},
	} {
		before := StripeLocks()
		row.op()
		if got := int(StripeLocks() - before); got != row.want {
			t.Errorf("%s: %d stripe locks, want %d", row.name, got, row.want)
		}
	}
}
