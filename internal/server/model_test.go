package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/core"
	"fscache/internal/faultinject"
	"fscache/internal/shardcache"
	"fscache/internal/xrand"
)

// serverModel is the sequential reference the real server is checked
// against: a map holding the bytes and a private engine, built from the same
// Config, making the replacement decisions. One client driving one
// connection at a time makes the server sequential too, so the two must
// agree on every response and on the store's contents.
type serverModel struct {
	eng *shardcache.Engine
	m   map[uint64]modelEntry
}

type modelEntry struct {
	key  string
	val  []byte
	part int
	line int
}

func newServerModel(cfg Config) *serverModel {
	eng := shardcache.New(cfg.Cache)
	targets := make([]int, len(cfg.Tenants))
	alloc.EvenSplit(targets, cfg.Cache.Lines)
	eng.SetTargets(targets)
	return &serverModel{eng: eng, m: map[uint64]modelEntry{}}
}

// apply executes req on the model and returns the response the server owes.
func (m *serverModel) apply(req *Request) Response {
	resp := Response{Status: StatusOK, Tenant: req.Tenant, Seq: req.Seq}
	if req.Op == OpPing || req.Op == OpStats {
		return resp // a Stats frame's value is the server's own counters
	}
	if int(req.Tenant) >= m.eng.Parts() || len(req.Key) == 0 {
		resp.Status = StatusBadRequest
		return resp
	}
	addr, part := hashKey(req.Key), int(req.Tenant)
	// access returns its result with Line numbered across the whole engine,
	// stripe by stripe, as diff numbers the store's lines.
	access := func() core.AccessResult {
		h := m.eng.Lock(addr)
		res := h.Access(addr, part)
		res.Line += h.Stripe() * m.eng.Lines() / m.eng.Stripes()
		h.Unlock()
		if res.Evicted {
			delete(m.m, res.EvictedAddr)
		}
		return res
	}
	switch req.Op {
	case OpGet:
		e, ok := m.m[addr]
		if !ok || e.key != string(req.Key) {
			resp.Status = StatusNotFound
			break
		}
		if access().Hit {
			resp.Flags |= FlagHit
		}
		resp.Value = e.val
	case OpSet:
		line := access().Line
		m.m[addr] = modelEntry{key: string(req.Key), val: append([]byte(nil), req.Value...), part: part, line: line}
	case OpDel:
		if _, ok := m.m[addr]; !ok {
			resp.Status = StatusNotFound
		}
		delete(m.m, addr)
	}
	return resp
}

// sameResponse reports whether got is the response want says the server owes.
func sameResponse(got, want Response) bool {
	return got.Seq == want.Seq && got.Status == want.Status && got.Flags == want.Flags &&
		got.Tenant == want.Tenant && bytes.Equal(got.Value, want.Value)
}

// diff reports how the quiescent server's state differs from the model's
// ("" when it does not): engine access count, then the store line by line.
func (m *serverModel) diff(s *Server) string {
	if got, want := s.engine.Snapshot().Accesses, m.eng.Snapshot().Accesses; got != want {
		return fmt.Sprintf("engine performed %d accesses, model %d", got, want)
	}
	n := 0
	for g := range s.store.stripes {
		h, st := s.engine.LockStripe(g), &s.store.stripes[g]
		for i, key := range st.key {
			if len(key) == 0 {
				continue
			}
			n++
			line, val := g*len(st.key)+i, st.val[i]
			if w, ok := m.m[hashKey(key)]; !ok || w.key != string(key) || !bytes.Equal(w.val, val) || w.line != line {
				h.Unlock()
				return fmt.Sprintf("store line %d holds %q = %q, model has %q = %q at line %d (present %v)",
					line, key, val, w.key, w.val, w.line, ok)
			}
		}
		h.Unlock()
	}
	if n != len(m.m) {
		return fmt.Sprintf("store holds %d entries, model %d", n, len(m.m))
	}
	return ""
}

// waitQuiet waits until the server has accepted all dials connections made
// so far, no response is in flight and at most live connections remain, i.e.
// until it has applied everything it will apply of what was sent so far.
func waitQuiet(t *testing.T, s *Server, dials uint64, live int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		accepted := s.accepted.Load()
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if accepted == dials && n <= live && s.adm.inflight.Load() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server not quiet: %d of %d dials accepted, %d live conns, inflight %d",
				accepted, dials, n, s.adm.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// modelBurst generates one seeded burst: mixed SET/GET/DEL/Ping over a key
// space four times the cache, with the odd invalid request.
func modelBurst(rng *xrand.Rand, depth int, seq *uint32, lines int) []Request {
	reqs := make([]Request, depth)
	for i := range reqs {
		*seq++
		req := Request{Seq: *seq, Tenant: uint8(rng.Intn(2))}
		id := rng.Intn(4 * lines)
		req.Key = []byte(fmt.Sprintf("model-%04d", id))
		switch p := rng.Float64(); {
		case p < 0.45:
			req.Op = OpGet
		case p < 0.85:
			req.Op = OpSet
			req.Value = bytes.Repeat([]byte{byte(*seq)}, rng.Intn(3)*rng.Intn(700))
			req.Value = append(req.Value, req.Key...)
		case p < 0.93:
			req.Op = OpDel
		case p < 0.98:
			req.Op = OpPing
		default:
			req.Op, req.Tenant = OpGet, 9 // no such tenant
		}
		reqs[i] = req
	}
	return reqs
}

// runModel drives rounds bursts through connections made by dial and checks
// every response against the model. With lossy set, a transport error is
// expected: the server applied some prefix of the unanswered burst, which
// the model recovers by replaying frames until the states agree.
func runModel(t *testing.T, s *Server, dial func() net.Conn, seed uint64, rounds int, lossy bool) {
	model := newServerModel(s.cfg)
	rng := xrand.New(seed)
	depths := []int{1, 2, 16, 100}
	var seq uint32
	var nc net.Conn
	var br *bufio.Reader
	var payload []byte
	broken := 0
	var dials uint64
	for round := 0; round < rounds; round++ {
		if nc == nil {
			dials++
			nc = dial()
			br = bufio.NewReader(nc)
		}
		reqs := modelBurst(rng, depths[round%len(depths)], &seq, s.cfg.Cache.Lines)
		var burst []byte
		for i := range reqs {
			burst = AppendRequest(burst, &reqs[i])
		}
		_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
		// Every third burst arrives with its last frame torn across two
		// writes: the reader must not batch or answer the half frame.
		cut := len(burst)
		if round%3 == 2 {
			cut -= 1 + rng.Intn(reqHeaderSize)
		}
		_, err := nc.Write(burst[:cut])
		if err == nil && cut < len(burst) {
			time.Sleep(2 * time.Millisecond)
			_, err = nc.Write(burst[cut:])
		}
		answered := 0
		for err == nil && answered < len(reqs) {
			if payload, err = ReadFrame(br, payload); err != nil {
				break
			}
			var resp Response
			if resp, err = ParseResponse(payload); err != nil {
				t.Fatalf("round %d response %d: %v", round, answered, err)
			}
			want := model.apply(&reqs[answered])
			if !sameResponse(resp, want) {
				t.Fatalf("round %d response %d to %v %q: got seq %d %v flags %x %d bytes, model seq %d %v flags %x %d bytes",
					round, answered, reqs[answered].Op, reqs[answered].Key,
					resp.Seq, resp.Status, resp.Flags, len(resp.Value),
					want.Seq, want.Status, want.Flags, len(want.Value))
			}
			answered++
		}
		if err == nil {
			continue
		}
		if !lossy {
			t.Fatalf("round %d: %v", round, err)
		}
		// The connection died mid-burst. Once the server is quiet it has
		// applied frames [0, j) for some j ≥ answered; frames that change
		// neither the store nor the access count are no-ops, so the first j
		// whose state matches is the state the server is in.
		broken++
		_ = nc.Close()
		nc = nil
		waitQuiet(t, s, dials, 0)
		j := answered
		for model.diff(s) != "" {
			if j == len(reqs) {
				t.Fatalf("round %d: no prefix of the burst explains the server's state: %s", round, model.diff(s))
			}
			model.apply(&reqs[j])
			j++
		}
	}
	t.Logf("%d requests, %d broken connections, %d model entries", seq, broken, len(model.m))
	if lossy && broken == 0 {
		t.Fatal("no connection was broken — fault rates or seed are wrong")
	}

	// Quiescence: nothing in flight anywhere, store and engine in lockstep.
	live := 0
	if nc != nil {
		live = 1
	}
	waitQuiet(t, s, dials, live)
	if d := model.diff(s); d != "" {
		t.Fatalf("after quiescence: %s", d)
	}
	if entries, _ := s.store.Stats(); entries > s.cfg.Cache.Lines || entries == 0 {
		t.Fatalf("store holds %d entries for %d lines", entries, s.cfg.Cache.Lines)
	}
	if err := s.store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Last, because it perturbs recency: every stored key's line is resident.
	for addr, e := range model.m {
		if !s.engine.Access(addr, e.part).Hit {
			t.Errorf("bytes stored for %q but its line is not resident", e.key)
		}
	}
	if nc != nil {
		_ = nc.Close()
	}
}

// TestServerAgainstModel checks the whole serving path — framing, batching,
// response ordering, store ⇔ engine lockstep and in-flight accounting —
// against the sequential model, first over a clean socket and then with a
// fault injector on both ends of it.
func TestServerAgainstModel(t *testing.T) {
	cfg := testConfig()
	cfg.Cache.Stripes = 4
	// The model has no admission ladder; keep the watermarks out of reach.
	cfg.softInflight = 1 << 20

	t.Run("clean", func(t *testing.T) {
		s := startServer(t, cfg)
		dial := func() net.Conn {
			nc, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			return nc
		}
		runModel(t, s, dial, 16, 240, false)
	})

	t.Run("faulty", func(t *testing.T) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// Faults that kill or delay a connection keep the server's state a
		// prefix of what was sent; corrupted prefixes and reordered writes
		// would feed it requests the model never saw.
		faults := faultinject.NetFaults{Reset: 0.02, TornWrite: 0.03, StallRead: 0.1, Stall: time.Millisecond}
		s.Serve(faultinject.NewNetInjector(16, faults).WrapListener(ln))
		t.Cleanup(func() { _ = s.Shutdown(5 * time.Second) })
		client := faultinject.NewNetInjector(17, faults)
		dial := func() net.Conn {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			return client.WrapConn(nc)
		}
		runModel(t, s, dial, 18, 240, true)
		if got := s.panics.Load(); got != 0 {
			t.Fatalf("%d handler panics", got)
		}
	})
}
