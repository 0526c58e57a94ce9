package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/futility"
	"fscache/internal/shardcache"
)

// testConfig is a small, fast server: 256 lines across 2 shards, one
// guaranteed and one best-effort tenant, both unlimited unless a test
// tightens them.
func testConfig() Config {
	return Config{
		Addr: "127.0.0.1:0",
		Tenants: []TenantConfig{
			{Class: Guaranteed},
			{Class: BestEffort},
		},
		Cache: shardcache.Config{
			Lines:   256,
			Ways:    16,
			Stripes: 2,
			Parts:   2,
			Ranking: futility.CoarseLRU,
			Seed:    1,
		},
	}
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.ListenAndServe(); err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(func() {
		_ = s.Shutdown(5 * time.Second)
	})
	return s
}

// testClient is a minimal synchronous client: one request in flight,
// responses matched by seq (stale responses from abandoned requests are
// discarded).
type testClient struct {
	t   *testing.T
	nc  net.Conn
	br  *bufio.Reader
	seq uint32
	buf []byte
}

func dialTest(t *testing.T, s *Server) *testClient {
	t.Helper()
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return &testClient{t: t, nc: nc, br: bufio.NewReader(nc)}
}

func (c *testClient) rpc(req Request) (Response, error) {
	c.seq++
	req.Seq = c.seq
	frame := AppendRequest(nil, &req)
	_ = c.nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.nc.Write(frame); err != nil {
		return Response{}, err
	}
	for {
		var err error
		c.buf, err = ReadFrame(c.br, c.buf)
		if err != nil {
			return Response{}, err
		}
		resp, err := ParseResponse(c.buf)
		if err != nil {
			return Response{}, err
		}
		if resp.Seq == c.seq {
			return resp, nil
		}
	}
}

func (c *testClient) mustRPC(req Request) Response {
	c.t.Helper()
	resp, err := c.rpc(req)
	if err != nil {
		c.t.Fatalf("%v rpc: %v", req.Op, err)
	}
	return resp
}

func TestServerBasicOps(t *testing.T) {
	s := startServer(t, testConfig())
	c := dialTest(t, s)

	if r := c.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("ping: %v", r.Status)
	}
	if r := c.mustRPC(Request{Op: OpGet, Tenant: 0, Key: []byte("missing")}); r.Status != StatusNotFound {
		t.Fatalf("get missing: %v", r.Status)
	}
	if r := c.mustRPC(Request{Op: OpSet, Tenant: 0, Key: []byte("k1"), Value: []byte("hello")}); r.Status != StatusOK {
		t.Fatalf("set: %v", r.Status)
	}
	r := c.mustRPC(Request{Op: OpGet, Tenant: 0, Key: []byte("k1")})
	if r.Status != StatusOK || string(r.Value) != "hello" {
		t.Fatalf("get: %v %q", r.Status, r.Value)
	}
	if r.Flags&FlagHit == 0 {
		t.Fatalf("get after set should be a simulated hit, flags=%x", r.Flags)
	}
	if r := c.mustRPC(Request{Op: OpDel, Tenant: 0, Key: []byte("k1")}); r.Status != StatusOK {
		t.Fatalf("del: %v", r.Status)
	}
	if r := c.mustRPC(Request{Op: OpGet, Tenant: 0, Key: []byte("k1")}); r.Status != StatusNotFound {
		t.Fatalf("get after del: %v", r.Status)
	}
	if r := c.mustRPC(Request{Op: OpDel, Tenant: 0, Key: []byte("k1")}); r.Status != StatusNotFound {
		t.Fatalf("del absent: %v", r.Status)
	}

	// Bad tenant and empty key are rejected without killing the conn.
	if r := c.mustRPC(Request{Op: OpGet, Tenant: 9, Key: []byte("x")}); r.Status != StatusBadRequest {
		t.Fatalf("bad tenant: %v", r.Status)
	}
	if r := c.mustRPC(Request{Op: OpSet, Tenant: 0}); r.Status != StatusBadRequest {
		t.Fatalf("empty key: %v", r.Status)
	}
	if r := c.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("conn should survive bad requests: %v", r.Status)
	}
}

func TestServerStatsOp(t *testing.T) {
	s := startServer(t, testConfig())
	c := dialTest(t, s)
	for i := 0; i < 10; i++ {
		c.mustRPC(Request{Op: OpSet, Tenant: 0,
			Key: []byte(fmt.Sprintf("key-%d", i)), Value: []byte("v")})
	}
	r := c.mustRPC(Request{Op: OpStats})
	if r.Status != StatusOK {
		t.Fatalf("stats: %v", r.Status)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(r.Value, &snap); err != nil {
		t.Fatalf("stats payload: %v\n%s", err, r.Value)
	}
	if len(snap.Tenants) != 2 {
		t.Fatalf("tenants: %d", len(snap.Tenants))
	}
	if snap.Tenants[0].Admitted < 10 {
		t.Fatalf("tenant 0 admitted %d, want >= 10", snap.Tenants[0].Admitted)
	}
	if snap.StoreEntries != 10 {
		t.Fatalf("store entries %d, want 10", snap.StoreEntries)
	}
	if snap.Tenants[0].Class != "guaranteed" || snap.Tenants[1].Class != "best-effort" {
		t.Fatalf("classes: %+v", snap.Tenants)
	}
	if snap.Latency.N == 0 {
		t.Fatal("latency histogram empty after 10 requests")
	}
}

// TestEvictionKeepsStoreInSync is the byte-store/engine contract: after
// writing far more keys than the cache holds, the store contains at most
// Lines entries — evictions deleted the victims' bytes — and every
// still-resident key GETs its exact value back.
func TestEvictionKeepsStoreInSync(t *testing.T) {
	cfg := testConfig()
	s := startServer(t, cfg)
	c := dialTest(t, s)

	const n = 2048 // 8x capacity
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("bulk-%04d", i))
		val := []byte(fmt.Sprintf("value-of-%04d", i))
		if r := c.mustRPC(Request{Op: OpSet, Tenant: uint8(i % 2), Key: key, Value: val}); r.Status != StatusOK {
			t.Fatalf("set %d: %v", i, r.Status)
		}
	}
	entries, _ := s.store.Stats()
	if entries > cfg.Cache.Lines {
		t.Fatalf("store holds %d entries, cache only has %d lines — evictions leaked bytes",
			entries, cfg.Cache.Lines)
	}
	if entries == 0 {
		t.Fatal("store empty after writes")
	}
	found := 0
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("bulk-%04d", i))
		r := c.mustRPC(Request{Op: OpGet, Tenant: uint8(i % 2), Key: key})
		switch r.Status {
		case StatusOK:
			if want := fmt.Sprintf("value-of-%04d", i); string(r.Value) != want {
				t.Fatalf("key %d returned %q, want %q", i, r.Value, want)
			}
			found++
		case StatusNotFound:
		default:
			t.Fatalf("get %d: %v", i, r.Status)
		}
	}
	if found == 0 {
		t.Fatal("no keys survived")
	}
}

// TestAllocatorFeed serves cache-aside traffic — GETs, and a SET after
// each miss — with an online allocator. Its epochs close on rebalancer
// polls, at the engine's access count as the poll summed it, so with one
// client at least one epoch and at most accesses/EpochAccesses
// have closed, epoch k no earlier than k·EpochAccesses accesses; and tenant
// 0 cycles a working set while tenant 1 never reuses a key, so an epoch
// moves lines to tenant 0 and the rebalancer installs them.
func TestAllocatorFeed(t *testing.T) {
	const epoch = 1024
	cfg := testConfig()
	cfg.Alloc = alloc.New(alloc.Config{Parts: 2, Lines: cfg.Cache.Lines, EpochAccesses: epoch, Seed: 1})
	cfg.Rebalance = time.Millisecond
	s := startServer(t, cfg)
	c := dialTest(t, s)

	sets := 0
	for i := 0; i < 4096; i++ {
		tenant := uint8(i % 2)
		key := []byte(fmt.Sprintf("scan-%d", i))
		if tenant == 0 {
			key = []byte(fmt.Sprintf("hot-%d", i/2%96))
		}
		switch r := c.mustRPC(Request{Op: OpGet, Tenant: tenant, Key: key}); r.Status {
		case StatusOK:
			continue
		case StatusNotFound:
		default:
			t.Fatalf("get %s: %v", key, r.Status)
		}
		if r := c.mustRPC(Request{Op: OpSet, Tenant: tenant, Key: key, Value: key}); r.Status != StatusOK {
			t.Fatalf("set %s: %v", key, r.Status)
		}
		sets++
	}
	if hits := s.Stats().Tenants[0].Hits; hits == 0 || sets == 0 {
		t.Fatalf("traffic took one path only: %d GET hits, %d SETs", hits, sets)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().TargetInstalls == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no epoch targets installed; allocator targets %v", cfg.Alloc.Targets())
		}
		time.Sleep(time.Millisecond)
	}
	accesses := s.Stats().Accesses // no request runs now, so the count stands
	log, _ := cfg.Alloc.Log()
	if got := cfg.Alloc.Epoch(); got < 1 || got > int(accesses/epoch) || got != len(log) {
		t.Fatalf("allocator closed %d epochs (%d logged) over %d engine accesses, want 1 to %d",
			got, len(log), accesses, accesses/epoch)
	}
	for k, d := range log {
		if lo := uint64(k+1) * epoch; d.Access < lo || d.Access > accesses {
			t.Fatalf("epoch %d closed at access %d, want %d to %d", d.Epoch, d.Access, lo, accesses)
		}
	}
	if tg := s.Engine().Targets(); tg[0] <= tg[1] {
		t.Fatalf("installed targets %v: the reused tenant should hold more", tg)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	cfg := testConfig()
	slow := atomic.Bool{}
	cfg.testHook = func(req *Request) {
		if slow.Load() {
			time.Sleep(10 * time.Millisecond)
		}
	}
	s := startServer(t, cfg)
	c := dialTest(t, s)

	// Generous deadline: fine.
	r := c.mustRPC(Request{Op: OpSet, Tenant: 0, Key: []byte("k"), Value: []byte("v"),
		DeadlineUS: uint32(time.Second / time.Microsecond)})
	if r.Status != StatusOK {
		t.Fatalf("fast request with deadline: %v", r.Status)
	}
	// 1ms deadline against a 10ms handler stall: expired.
	slow.Store(true)
	r = c.mustRPC(Request{Op: OpGet, Tenant: 0, Key: []byte("k"),
		DeadlineUS: uint32(time.Millisecond / time.Microsecond)})
	if r.Status != StatusDeadline {
		t.Fatalf("stalled request: %v, want deadline-exceeded", r.Status)
	}
	if len(r.Value) != 0 {
		t.Fatal("deadline-exceeded response carried a value")
	}
	snap := s.Stats()
	if snap.Tenants[0].Deadlined != 1 {
		t.Fatalf("deadlined counter: %d", snap.Tenants[0].Deadlined)
	}
}

// TestDegradationLadderEndToEnd drives the ladder over the wire via
// exhausted token buckets: guaranteed GETs degrade to stale serves (bytes
// still correct, FlagStale set), guaranteed SETs and all best-effort
// requests shed.
func TestDegradationLadderEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = []TenantConfig{
		{Class: Guaranteed, Rate: 0.001, Burst: 2}, // ~never refills mid-test
		{Class: BestEffort, Rate: 0.001, Burst: 1},
	}
	s := startServer(t, cfg)
	c := dialTest(t, s)

	// Two admitted guaranteed requests drain the burst: a SET stores the
	// key, a GET confirms the fresh path.
	if r := c.mustRPC(Request{Op: OpSet, Tenant: 0, Key: []byte("gk"), Value: []byte("gv")}); r.Status != StatusOK {
		t.Fatalf("guaranteed set: %v", r.Status)
	}
	r := c.mustRPC(Request{Op: OpGet, Tenant: 0, Key: []byte("gk")})
	if r.Status != StatusOK || r.Flags&FlagStale != 0 {
		t.Fatalf("fresh get: %v flags=%x", r.Status, r.Flags)
	}
	// Bucket empty: GET must still answer, marked stale.
	r = c.mustRPC(Request{Op: OpGet, Tenant: 0, Key: []byte("gk")})
	if r.Status != StatusOK || string(r.Value) != "gv" {
		t.Fatalf("stale get: %v %q", r.Status, r.Value)
	}
	if r.Flags&FlagStale == 0 {
		t.Fatalf("over-rate guaranteed GET should be stale-served, flags=%x", r.Flags)
	}
	// Stale path for an absent key: still a fast answer, NotFound.
	if r := c.mustRPC(Request{Op: OpGet, Tenant: 0, Key: []byte("nope")}); r.Status != StatusNotFound {
		t.Fatalf("stale get absent: %v", r.Status)
	}
	// Guaranteed SET without tokens sheds.
	if r := c.mustRPC(Request{Op: OpSet, Tenant: 0, Key: []byte("gk2"), Value: []byte("x")}); r.Status != StatusShed {
		t.Fatalf("over-rate guaranteed SET: %v, want shed", r.Status)
	}
	// Best-effort: one admit, then shed.
	if r := c.mustRPC(Request{Op: OpSet, Tenant: 1, Key: []byte("bk"), Value: []byte("bv")}); r.Status != StatusOK {
		t.Fatalf("best-effort set: %v", r.Status)
	}
	if r := c.mustRPC(Request{Op: OpGet, Tenant: 1, Key: []byte("bk")}); r.Status != StatusShed {
		t.Fatalf("over-rate best-effort: %v, want shed", r.Status)
	}
	snap := s.Stats()
	if snap.Tenants[0].StaleServes < 2 {
		t.Fatalf("stale serves: %d", snap.Tenants[0].StaleServes)
	}
	if snap.Tenants[1].Shed < 1 {
		t.Fatalf("best-effort sheds: %d", snap.Tenants[1].Shed)
	}
}

func TestHardLimitRejects(t *testing.T) {
	cfg := testConfig()
	cfg.softInflight = 1
	cfg.hardInflight = 1
	s := startServer(t, cfg)
	// With hard = 1, any standing in-flight load rejects the next
	// request. Pin the gauge directly (simulating queued responses to a
	// slow client) and check over the wire.
	s.adm.inflight.Add(1)
	defer s.adm.inflight.Add(-1)
	c := dialTest(t, s)
	if r := c.mustRPC(Request{Op: OpGet, Tenant: 0, Key: []byte("k")}); r.Status != StatusOverload {
		t.Fatalf("above hard limit: %v, want overload", r.Status)
	}
	if r := c.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("ping must bypass overload: %v", r.Status)
	}
	snap := s.Stats()
	if snap.Tenants[0].Rejected != 1 {
		t.Fatalf("rejected counter: %d", snap.Tenants[0].Rejected)
	}
}

func TestPanicIsolation(t *testing.T) {
	cfg := testConfig()
	cfg.testHook = func(req *Request) {
		if bytes.Equal(req.Key, []byte("boom")) {
			panic("server_test: injected handler panic")
		}
	}
	var logs []string
	cfg.Logf = func(format string, args ...interface{}) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	s := startServer(t, cfg)

	c1 := dialTest(t, s)
	_, err := c1.rpc(Request{Op: OpGet, Tenant: 0, Key: []byte("boom")})
	if err == nil {
		t.Fatal("panicking request should kill its connection")
	}

	// The server survives: a new connection works, and the panic is
	// counted and logged.
	c2 := dialTest(t, s)
	if r := c2.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("server dead after handler panic: %v", r.Status)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panic counter: %d", got)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "panic") {
			found = true
		}
	}
	if !found {
		t.Fatalf("panic not logged: %q", logs)
	}
}

func TestProtocolErrorsOverTheWire(t *testing.T) {
	s := startServer(t, testConfig())

	// Oversized length prefix: the server must drop the connection.
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var evil [4]byte
	binary.LittleEndian.PutUint32(evil[:], MaxFrame+1)
	if _, err := nc.Write(evil[:]); err != nil {
		t.Fatal(err)
	}
	// The connection must terminate without a response frame (EOF or
	// reset, depending on what was left in the socket buffer).
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if data, _ := io.ReadAll(nc); len(data) != 0 {
		t.Fatalf("server answered a frame-bomb with %d bytes", len(data))
	}

	// Bad version inside an intact frame: StatusBadRequest, conn lives.
	c := dialTest(t, s)
	req := Request{Op: OpGet, Tenant: 0, Key: []byte("k")}
	frame := AppendRequest(nil, &req)
	frame[lenPrefixSize] = Version + 7
	if _, err := c.nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf, err = ReadFrame(c.br, buf)
	if err != nil {
		t.Fatalf("read bad-version response: %v", err)
	}
	resp, err := ParseResponse(buf)
	if err != nil || resp.Status != StatusBadRequest {
		t.Fatalf("bad version: %v %v", resp.Status, err)
	}
	if r := c.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("conn should survive a bad-version frame: %v", r.Status)
	}
	if s.badFrames.Load() == 0 {
		t.Fatal("bad frames not counted")
	}
}

func TestReadTimeoutDropsStalledConn(t *testing.T) {
	cfg := testConfig()
	cfg.readTimeout = 100 * time.Millisecond
	s := startServer(t, cfg)

	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Slow-loris: send half a length prefix and stall.
	if _, err := nc.Write([]byte{9, 0}); err != nil {
		t.Fatal(err)
	}
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(nc); err != nil {
		t.Fatalf("server should close a stalled conn cleanly, got %v", err)
	}
}

func TestSlowClientBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.slowWrite = 100 * time.Millisecond
	s := startServer(t, cfg)

	c := dialTest(t, s)
	big := bytes.Repeat([]byte{'x'}, 256<<10)
	if r := c.mustRPC(Request{Op: OpSet, Tenant: 0, Key: []byte("big"), Value: big}); r.Status != StatusOK {
		t.Fatalf("set: %v", r.Status)
	}
	// Pipeline GETs for a 256KiB value without ever reading responses:
	// kernel buffers fill, a response write blocks, and the slow-client
	// bound declares us slow.
	req := Request{Op: OpGet, Tenant: 0, Key: []byte("big")}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c.seq++
		req.Seq = c.seq
		_ = c.nc.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := c.nc.Write(AppendRequest(nil, &req)); err != nil {
			break // server gave up on us — exactly what we want
		}
		if s.slowClients.Load() > 0 {
			break
		}
	}
	waitUntil := time.Now().Add(5 * time.Second)
	for s.slowClients.Load() == 0 && time.Now().Before(waitUntil) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.slowClients.Load() == 0 {
		t.Fatal("slow client never detected")
	}
	// The server itself stays healthy for other clients.
	c2 := dialTest(t, s)
	if r := c2.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("ping after slow-client drop: %v", r.Status)
	}
}

func TestGracefulDrain(t *testing.T) {
	cfg := testConfig()
	s := startServer(t, cfg)
	c := dialTest(t, s)
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("drain-%d", i))
		if r := c.mustRPC(Request{Op: OpSet, Tenant: 0, Key: key, Value: key}); r.Status != StatusOK {
			t.Fatalf("set: %v", r.Status)
		}
	}
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("drain was not clean: %v", err)
	}
	// The drained server refuses new connections (dial may succeed
	// briefly at the TCP level but any request fails).
	if nc, err := net.Dial("tcp", s.Addr().String()); err == nil {
		_ = nc.SetDeadline(time.Now().Add(2 * time.Second))
		req := Request{Op: OpPing, Seq: 1}
		_, _ = nc.Write(AppendRequest(nil, &req))
		if _, err := ReadFrame(bufio.NewReader(nc), nil); err == nil {
			t.Fatal("drained server answered a new request")
		}
		_ = nc.Close()
	}
	// Stats still readable in-process post-drain; histograms were merged.
	snap := s.Stats()
	if !snap.Draining {
		t.Fatal("snapshot does not show draining")
	}
	if snap.Latency.N == 0 {
		t.Fatal("latency samples lost in drain")
	}
	if snap.LiveConns != 0 {
		t.Fatalf("live conns after drain: %d", snap.LiveConns)
	}
}

func TestDrainWaitsForInflight(t *testing.T) {
	cfg := testConfig()
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	cfg.testHook = func(req *Request) {
		if bytes.Equal(req.Key, []byte("slow")) {
			entered <- struct{}{}
			<-release
		}
	}
	s := startServer(t, cfg)
	c := dialTest(t, s)

	type result struct {
		resp Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		req := Request{Op: OpGet, Tenant: 0, Key: []byte("slow"), Seq: 99}
		if _, err := c.nc.Write(AppendRequest(nil, &req)); err != nil {
			done <- result{err: err}
			return
		}
		buf, err := ReadFrame(c.br, nil)
		if err != nil {
			done <- result{err: err}
			return
		}
		resp, err := ParseResponse(buf)
		done <- result{resp: resp, err: err}
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(10 * time.Second) }()
	// The in-flight request is still blocked; shutdown must wait.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) while a request was in flight", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request lost in drain: %v", r.err)
	}
	if r.resp.Status != StatusNotFound && r.resp.Status != StatusOK {
		t.Fatalf("in-flight response: %v", r.resp.Status)
	}
}

func TestDrainForceClosesHungConns(t *testing.T) {
	cfg := testConfig()
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	cfg.testHook = func(req *Request) {
		if bytes.Equal(req.Key, []byte("hang")) {
			entered <- struct{}{}
			<-release
		}
	}
	s := startServer(t, cfg)
	c := dialTest(t, s)
	req := Request{Op: OpGet, Tenant: 0, Key: []byte("hang"), Seq: 1}
	if _, err := c.nc.Write(AppendRequest(nil, &req)); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Shutdown force-closes the socket at the timeout but still waits for
	// the hung handler goroutine; release it once the force-close is
	// recorded so Shutdown can return its error.
	errCh := make(chan error, 1)
	go func() { errCh <- s.Shutdown(100 * time.Millisecond) }()
	waitUntil := time.Now().Add(5 * time.Second)
	for s.forcedConns.Load() == 0 && time.Now().Before(waitUntil) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.forcedConns.Load() == 0 {
		t.Fatal("forced-conn counter not bumped")
	}
	close(release)
	if err := <-errCh; err == nil {
		t.Fatal("shutdown with a hung handler should report forced closes")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Tenants = nil },
		func(c *Config) { c.Cache.Parts = 3 },
		func(c *Config) { c.Targets = []int{1} },
		func(c *Config) { c.Targets = []int{-5, 261} },    // sums to Lines, one negative
		func(c *Config) { c.Targets = []int{9000, 9000} }, // over capacity
		func(c *Config) { c.Targets = []int{100, 100} },   // under capacity
		func(c *Config) { c.Cache.Lines = 100 },           // engine geometry shardcache.New panics on
		func(c *Config) { // an allocator with no cadence to poll it at
			c.Alloc = alloc.New(alloc.Config{Parts: 2, Lines: c.Cache.Lines, Seed: 1})
		},
	}
	for i, mut := range bad {
		cfg := testConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cfg := testConfig()
	if _, err := New(cfg); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cfg.Targets = []int{256, 0}
	if _, err := New(cfg); err != nil {
		t.Errorf("targets summing to Lines rejected: %v", err)
	}
}

// TestShutdownWaitsWhenQuiet covers drain with zero connections.
func TestShutdownQuiet(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ListenAndServe(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatalf("quiet shutdown: %v", err)
	}
	if err := s.Shutdown(time.Second); err == nil {
		t.Fatal("second shutdown should error")
	}
}
