package server

// Benchmark bodies for the perfbench registry (see internal/perfbench).
// They live here rather than in perfbench because they exercise unexported
// serving-layer internals (the admission ladder) alongside the exported
// codec; perfbench registers them by name.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"fscache/internal/futility"
	"fscache/internal/shardcache"
)

// BenchFrameCodec measures one request frame round trip: encode, frame
// read, parse. Steady-state zero-alloc: both the frame buffer and the read
// buffer are reused.
func BenchFrameCodec(b *testing.B) {
	req := Request{Op: OpSet, Tenant: 1, DeadlineUS: 1000,
		Key:   []byte("bench-key-0123456789"),
		Value: bytes.Repeat([]byte{0xA5}, 64),
	}
	var frame, payload []byte
	r := bytes.NewReader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seq = uint32(i)
		frame = AppendRequest(frame[:0], &req)
		r.Reset(frame)
		var err error
		payload, err = ReadFrame(r, payload)
		if err != nil {
			b.Fatal(err)
		}
		got, err := ParseRequest(payload)
		if err != nil || got.Seq != uint32(i) {
			b.Fatalf("round trip broke at %d: %v", i, err)
		}
	}
}

// BenchAdmissionDecide measures one walk of the degradation ladder in the
// admitted (calm) regime: the per-request overhead admission adds to every
// data-path request.
func BenchAdmissionDecide(b *testing.B) {
	a := newAdmission([]TenantConfig{
		{Class: Guaranteed, Rate: 1e9}, // never empties during the run
		{Class: BestEffort},            // unlimited
	}, 256, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := a.tenants[i&1]
		if v := a.decide(t, OpGet, int64(i)); v != vAdmit {
			b.Fatalf("unexpected verdict %d", v)
		}
	}
}

// BenchLoopbackRPC measures one synchronous GET round trip over TCP
// loopback against a live server — codec, admission, store, engine and
// both connection goroutines included. This is RPC latency, not engine
// throughput; loopback scheduling dominates.
func BenchLoopbackRPC(b *testing.B) { benchLoopback(b, 1) }

// BenchLoopbackPipelined is BenchLoopbackRPC with 16 GETs per client write,
// reported per request: one engine batch and one response write per round
// trip, so the server's per-request code is what is left.
func BenchLoopbackPipelined(b *testing.B) { benchLoopback(b, 16) }

func benchLoopback(b *testing.B, depth int) {
	srv, err := New(Config{
		Addr: "127.0.0.1:0",
		Tenants: []TenantConfig{
			{Class: Guaranteed},
			{Class: BestEffort},
		},
		Cache: shardcache.Config{
			Lines: 4096, Ways: 16, Shards: 4, Parts: 2,
			Ranking: futility.CoarseLRU, Seed: 1,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.ListenAndServe(); err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Shutdown(5 * time.Second) }()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	// trip writes n copies of req in one write and checks the n replies.
	var frame, payload []byte
	var seq uint32
	trip := func(req *Request, n int) {
		frame = frame[:0]
		for i := 0; i < n; i++ {
			req.Seq = seq + uint32(i)
			frame = AppendRequest(frame, req)
		}
		if _, err := nc.Write(frame); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			var err error
			if payload, err = ReadFrame(br, payload); err != nil {
				b.Fatal(err)
			}
			resp, err := ParseResponse(payload)
			if err != nil || resp.Status != StatusOK || resp.Seq != seq+uint32(i) {
				b.Fatalf("%v: status %v seq %d (want %d): %v", req.Op, resp.Status, resp.Seq, seq+uint32(i), err)
			}
		}
		seq += uint32(n)
	}
	trip(&Request{Op: OpSet, Tenant: 0, Key: []byte("bench"), Value: []byte("payload")}, 1)
	get := Request{Op: OpGet, Tenant: 0, Key: []byte("bench")}
	trip(&get, depth) // sizes every reused buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		trip(&get, depth)
	}
}

// BenchStoreSetGet measures the byte store alone: one overwrite and one
// read of a 1 KiB value per op over a resident key set. Overwrites land in
// place and reads copy into caller scratch, so nothing is allocated.
func BenchStoreSetGet(b *testing.B) {
	const keys = 1024
	s := newStore(16)
	val := bytes.Repeat([]byte{0xA5}, 1024)
	var key [keys][]byte
	var addr [keys]uint64
	for i := range key {
		key[i] = []byte(fmt.Sprintf("store-key-%04d", i))
		addr[i] = hashKey(key[i])
		s.Put(addr[i], key[i], val, nil)
	}
	dst := make([]byte, 0, len(val))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % keys
		val[0] = byte(i)
		s.Put(addr[k], key[k], val, nil)
		got, ok := s.Get(addr[k], key[k], dst[:0])
		if !ok || got[0] != byte(i) {
			b.Fatalf("key %d: found %v", k, ok)
		}
	}
}
