//go:build fscount

package server

import (
	"fmt"
	"testing"

	"fscache/internal/stats"
)

// TestCounted pins one stripe lock and one H3 evaluation per data-path
// request, the engine's and the byte store's work together, counted by the
// fscount build:
//
//	go test -tags fscount -run Counted ./internal/server
//
// Each row is one request over an in-memory connection to a warm server;
// the count is read once its response arrives, when the server has done
// all of its work. A pipelined run of GETs or SETs takes one lock per stripe
// its keys route to. The engine's router hashes each request's address once
// and hands the hash to the stripe, so the store's lookups and the engine's
// access hash nothing more. Every row, one request or a pipelined run of 16,
// is also one server socket write, counted by the pipe listener's conns.
func TestCounted(t *testing.T) {
	cfg := testConfig()
	cfg.Cache.Stripes = 4
	// Tenant 1's one token goes on its first SET; its GETs are stale after.
	cfg.Tenants[1] = TenantConfig{Class: Guaranteed, Rate: 0.001, Burst: 1}
	s, l := startPipeServer(t, cfg)
	c := l.dial(t)
	key := func(i int) []byte { return []byte(fmt.Sprintf("counted-%04d", i)) }
	if r := c.mustRPC(Request{Op: OpSet, Tenant: 1, Key: []byte("stale"), Value: []byte("v")}); r.Status != StatusOK {
		t.Fatalf("tenant 1 SET: %v", r.Status)
	}
	// Four times the lines: the cache is full, and the last keys resident.
	const keys = 4 * 256
	for i := 0; i < keys; i++ {
		c.mustRPC(Request{Op: OpSet, Tenant: 0, Key: key(i), Value: []byte("value")})
	}
	var resident []int
	for i := keys - 1; len(resident) < 24; i-- {
		if _, ok := get(s.store, hashKey(key(i)), key(i), nil); ok {
			resident = append(resident, i)
		}
	}
	evictions := func() (n uint64) {
		for _, p := range s.engine.Snapshot().Parts {
			n += p.Evictions
		}
		return n
	}

	count := func(name string, locks, h3 int, send func()) {
		t.Helper()
		before, evals, writes := stats.ReadCounted().Locks, stats.ReadCounted().H3, l.writes.Load()
		send()
		if got := int(stats.ReadCounted().Locks - before); got != locks {
			t.Errorf("%s: %d stripe locks, want %d", name, got, locks)
		}
		if got := int(stats.ReadCounted().H3 - evals); got != h3 {
			t.Errorf("%s: %d H3 evaluations, want %d", name, got, h3)
		}
		if got := l.writes.Load() - writes; got != 1 {
			t.Errorf("%s: %d server socket writes, want 1", name, got)
		}
	}
	rpc := func(req Request, status Status, flags uint8) func() {
		return func() {
			if r := c.mustRPC(req); r.Status != status || r.Flags != flags {
				t.Errorf("%v %q: %v flags %x, want %v flags %x", req.Op, req.Key, r.Status, r.Flags, status, flags)
			}
		}
	}
	hit := key(resident[0])
	count("GetHit", 1, 1, rpc(Request{Op: OpGet, Key: hit}, StatusOK, FlagHit))
	count("GetMiss", 1, 1, rpc(Request{Op: OpGet, Key: key(keys)}, StatusNotFound, 0))
	before := evictions()
	count("SetOverVictim", 1, 1, rpc(Request{Op: OpSet, Key: key(keys + 1), Value: []byte("v")}, StatusOK, 0))
	if evictions() != before+1 {
		t.Error("the SET evicted nothing")
	}
	count("Del", 1, 1, rpc(Request{Op: OpDel, Key: hit}, StatusOK, 0))
	count("StaleGet", 1, 1, rpc(Request{Op: OpGet, Tenant: 1, Key: []byte("stale")}, StatusOK, FlagStale))
	// One engine snapshot and the store's entry count: a lock a stripe each,
	// and no address to hash.
	nStripes := s.engine.Stripes()
	count(fmt.Sprintf("StatsOver%dStripes", nStripes), 2*nStripes, 0, rpc(Request{Op: OpStats}, StatusOK, 0))

	// Sixteen pipelined GETs of resident keys in one write, then sixteen
	// SETs of the same keys: one run each.
	stripes := map[int]bool{}
	for _, k := range resident[8:] {
		h := s.engine.Lock(hashKey(key(k)))
		stripes[h.Stripe()] = true
		h.Unlock()
	}
	for _, row := range []struct {
		name string
		op   Op
	}{{"Pipelined16", OpGet}, {"Pipelined16Sets", OpSet}} {
		var frames []byte
		for i, k := range resident[8:] {
			req := Request{Op: row.op, Seq: uint32(i), Key: key(k)}
			if row.op == OpSet {
				req.Value = []byte("new value")
			}
			frames = AppendRequest(frames, &req)
		}
		count(fmt.Sprintf("%sOver%dStripes", row.name, len(stripes)), len(stripes), 16, func() {
			if _, err := c.nc.Write(frames); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if r := c.next(); r.Status != StatusOK || r.Seq != uint32(i) {
					t.Fatalf("pipelined %v %d: %v seq %d", row.op, i, r.Status, r.Seq)
				}
			}
		})
	}
	if len(stripes) < 2 {
		t.Fatalf("the run's keys route to %d stripe", len(stripes))
	}
}
