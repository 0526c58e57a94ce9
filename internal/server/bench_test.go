package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"testing"
	"time"

	"fscache/internal/futility"
	"fscache/internal/shardcache"
)

// allocFreeOps are this package's measured operations on the //fs:allocfree
// path (DESIGN.md §10). Each setup warms its structure and returns op, where
// op(n) performs the next n operations in an inline loop. BenchmarkAllocFree
// times op(b.N), and TestAllocFree holds op(1) to 0 allocations. The loopback
// operations count the server's allocations too: testing.AllocsPerRun reads
// the whole process's.
var allocFreeOps = []struct {
	name  string
	setup func(testing.TB) func(n int)
}{
	{"FrameCodec", frameCodecOp},
	{"AdmissionDecide", admissionDecideOp},
	{"LoopbackRPC", loopbackOp(OpGet, 1)},
	// Per request, sixteen to a client write.
	{"LoopbackPipelined", loopbackOp(OpGet, 16)},
	{"LoopbackPipelinedSet", loopbackOp(OpSet, 16)},
	{"StoreSetGet", storeSetGetOp},
	{"StoreSetEvict", storeSetEvictOp},
	{"StoreDelete", storeDeleteOp},
}

// frameCodecOp is one request frame round trip: encode, frame read, parse,
// with the frame buffer and the read buffer reused.
func frameCodecOp(tb testing.TB) func(int) {
	req := Request{Op: OpSet, Tenant: 1, DeadlineUS: 1000,
		Key:   []byte("bench-key-0123456789"),
		Value: bytes.Repeat([]byte{0xA5}, 64),
	}
	var frame, payload []byte
	r := bytes.NewReader(nil)
	op := func(n int) {
		for range n {
			req.Seq++
			frame = AppendRequest(frame[:0], &req)
			r.Reset(frame)
			var err error
			payload, err = ReadFrame(r, payload)
			if err != nil {
				tb.Fatal(err)
			}
			got, err := ParseRequest(payload)
			if err != nil || got.Seq != req.Seq {
				tb.Fatalf("round trip broke at %d: %v", req.Seq, err)
			}
		}
	}
	op(1) // sizes both buffers
	return op
}

// admissionDecideOp is one walk of the degradation ladder in the admitted
// (calm) regime: the overhead admission adds to every data-path request.
func admissionDecideOp(tb testing.TB) func(int) {
	a := newAdmission([]TenantConfig{
		{Class: Guaranteed, Rate: 1e9}, // never empties during the run
		{Class: BestEffort},            // unlimited
	}, 256, 1024)
	next := 0
	return func(n int) {
		i := next
		for end := i + n; i < end; i++ {
			if v := a.decide(a.tenants[i&1], OpGet, int64(i)); v != vAdmit {
				tb.Fatalf("unexpected verdict %d", v)
			}
		}
		next = i
	}
}

// loopbackOp returns a setup for GETs or SETs (op) of one resident key to a
// live server over TCP loopback, depth to a client write, and their replies:
// codec, admission, store, engine and both connection goroutines. op(n)
// sends n requests rounded up to whole writes; a SET overwrites the key's
// value in place.
// At depth 1 that is RPC latency, which loopback scheduling dominates; at
// depth 16 one run and one response write serve all sixteen.
func loopbackOp(op Op, depth int) func(testing.TB) func(int) {
	return func(tb testing.TB) func(int) {
		srv, err := New(Config{
			Addr:    "127.0.0.1:0",
			Tenants: []TenantConfig{{Class: Guaranteed}, {Class: BestEffort}},
			Cache: shardcache.Config{
				Lines: 4096, Ways: 16, Stripes: 4, Parts: 2,
				Ranking: futility.CoarseLRU, Seed: 1,
			},
		})
		if err != nil {
			tb.Fatal(err)
		}
		if err := srv.ListenAndServe(); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = srv.Shutdown(5 * time.Second) })
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { nc.Close() })
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
				tb.Fatal(err)
			}
			for i := 0; i < n; i++ {
				var err error
				if payload, err = ReadFrame(br, payload); err != nil {
					tb.Fatal(err)
				}
				resp, err := ParseResponse(payload)
				if err != nil || resp.Status != StatusOK || resp.Seq != seq+uint32(i) {
					tb.Fatalf("%v: status %v seq %d (want %d): %v", req.Op, resp.Status, resp.Seq, seq+uint32(i), err)
				}
			}
			seq += uint32(n)
		}
		trip(&Request{Op: OpSet, Tenant: 0, Key: []byte("bench"), Value: []byte("payload")}, 1)
		req := Request{Op: op, Tenant: 0, Key: []byte("bench")}
		if op == OpSet {
			req.Value = []byte("payload")
		}
		trip(&req, depth) // sizes every reused buffer
		return func(n int) {
			for done := 0; done < n; done += depth {
				trip(&req, depth)
			}
		}
	}
}

// storeEngine is the engine behind the store rows: the benchmark's serving
// geometry at a quarter of its lines, one partition.
func storeEngine() *shardcache.Engine {
	e := shardcache.New(shardcache.Config{
		Lines: 4096, Ways: 16, Stripes: 16, Parts: 1,
		Ranking: futility.CoarseLRU, Seed: 1,
	})
	e.SetTargets([]int{e.Lines()})
	return e
}

// storeKeys fills a fresh store over storeEngine with 1024 keys of 1 KiB
// values and returns it, the keys and their addresses.
func storeKeys() (*store, [][]byte, []uint64) {
	s := newStore(storeEngine())
	val := bytes.Repeat([]byte{0xA5}, 1024)
	key, addr := make([][]byte, 1024), make([]uint64, 1024)
	for i := range key {
		key[i] = []byte(fmt.Sprintf("store-key-%04d", i))
		addr[i] = hashKey(key[i])
		set(s, addr[i], 0, key[i], val)
	}
	return s, key, addr
}

// storeSetGetOp is the byte store alone: one overwrite and one read of a
// 1 KiB value over a resident key set. Overwrites land in place and reads
// copy into caller scratch under the stripe lock.
func storeSetGetOp(tb testing.TB) func(int) {
	s, key, addr := storeKeys()
	val := bytes.Repeat([]byte{0xA5}, 1024)
	dst := make([]byte, 0, len(val))
	next := 0
	return func(n int) {
		i := next
		for end := i + n; i < end; i++ {
			k := i % len(key)
			val[0] = byte(i)
			set(s, addr[k], 0, key[k], val)
			if got, ok := get(s, addr[k], key[k], dst[:0]); !ok || got[0] != byte(i) {
				tb.Fatalf("key %d: found %v", k, ok)
			}
		}
		next = i
	}
}

// storeDeleteOp is a DEL of a resident key and its re-SET: the DEL empties
// the line and keeps its buffers, the engine line stays resident, and the
// re-SET hits it and refills the buffers in place.
func storeDeleteOp(tb testing.TB) func(int) {
	s, key, addr := storeKeys()
	val := bytes.Repeat([]byte{0xA5}, 1024)
	next := 0
	return func(n int) {
		i := next
		for end := i + n; i < end; i++ {
			k := i % len(key)
			if !del(s, addr[k]) || !set(s, addr[k], 0, key[k], val).Hit {
				tb.Fatalf("key %d: not resident", k)
			}
		}
		next = i
	}
}

// storeSetEvictOp is a SET of a key never seen before on a full engine, as
// the server performs it: the engine access evicts, and the store writes the
// 16-byte key and 1 KiB value over the victim's line, in its buffers.
func storeSetEvictOp(tb testing.TB) func(int) {
	s := newStore(storeEngine())
	val := bytes.Repeat([]byte{0xA5}, 1024)
	key := []byte("evict-key-000000")
	next, full := uint64(0), false
	op := func(n int) {
		for range n {
			next++
			binary.BigEndian.PutUint64(key[8:], next)
			if res := set(s, hashKey(key), 0, key, val); res.Hit || full && !res.Evicted {
				tb.Fatalf("key %d: hit %v, evicted %v", next, res.Hit, res.Evicted)
			}
		}
	}
	op(4 * s.eng.Lines()) // fills every set
	if entries, _ := s.Stats(); entries != s.eng.Lines() {
		tb.Fatalf("%d entries after warm-up, want %d", entries, s.eng.Lines())
	}
	full = true
	return op
}

func BenchmarkAllocFree(b *testing.B) {
	for _, o := range allocFreeOps {
		b.Run(o.name, func(b *testing.B) {
			op := o.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			op(b.N)
		})
	}
}

func TestAllocFree(t *testing.T) {
	for _, o := range allocFreeOps {
		t.Run(o.name, func(t *testing.T) {
			op := o.setup(t)
			if n := testing.AllocsPerRun(100, func() { op(1) }); n != 0 {
				t.Errorf("%v allocations per warm op", n)
			}
		})
	}
}
