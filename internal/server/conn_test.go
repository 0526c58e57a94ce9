package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// pipeListener serves in-memory connections: dial hands the server one end
// of a net.Pipe and the test the other. A pipe is unbuffered — a server
// write completes only as the client reads it, and one client write is
// what one server read sees — so the tests below control exactly when the
// reader runs dry and when the writer blocks. Server writes are counted.
type pipeListener struct {
	conns  chan net.Conn
	done   chan struct{}
	writes atomic.Int64
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { close(l.done); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(t *testing.T) *testClient {
	cli, srv := net.Pipe()
	l.conns <- countedConn{srv, &l.writes}
	t.Cleanup(func() { _ = cli.Close() })
	_ = cli.SetDeadline(time.Now().Add(10 * time.Second))
	return &testClient{t: t, nc: cli, br: bufio.NewReader(cli)}
}

func startPipeServer(t *testing.T, cfg Config) (*Server, *pipeListener) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	s.Serve(l)
	t.Cleanup(func() { _ = s.Shutdown(5 * time.Second) })
	return s, l
}

// next reads one response.
func (c *testClient) next() Response {
	c.t.Helper()
	var err error
	if c.buf, err = ReadFrame(c.br, c.buf); err != nil {
		c.t.Fatalf("read response: %v", err)
	}
	resp, err := ParseResponse(c.buf)
	if err != nil {
		c.t.Fatalf("parse response: %v", err)
	}
	return resp
}

// TestFlushBeforeBlock pins response coalescing from both sides: a lone
// request is answered at once, by itself, with nothing further from the
// client to trigger the flush; a pipelined run is one write; and a burst
// far beyond every cap comes back complete and in order.
func TestFlushBeforeBlock(t *testing.T) {
	cfg := testConfig()
	// The burst below outruns its reader on purpose; the unwritten replies
	// must not read as overload.
	cfg.SoftInflight = 1 << 20
	s, l := startPipeServer(t, cfg)
	c := l.dial(t)

	if r := c.mustRPC(Request{Op: OpSet, Tenant: 0, Key: []byte("k"), Value: []byte("v")}); r.Status != StatusOK {
		t.Fatalf("set: %v", r.Status)
	}
	if r := c.mustRPC(Request{Op: OpGet, Tenant: 0, Key: []byte("k")}); r.Status != StatusOK || string(r.Value) != "v" {
		t.Fatalf("get: %v %q", r.Status, r.Value)
	}
	if got := l.writes.Load(); got != 2 {
		t.Fatalf("two unpipelined requests took %d server writes, want one each", got)
	}

	var burst []byte
	for i := 0; i < 16; i++ {
		c.seq++
		burst = AppendRequest(burst, &Request{Op: OpGet, Tenant: 0, Seq: c.seq, Key: []byte("k")})
	}
	if _, err := c.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if r := c.next(); r.Seq != c.seq-15+uint32(i) || string(r.Value) != "v" {
			t.Fatalf("pipelined get %d: seq %d, %v %q", i, r.Seq, r.Status, r.Value)
		}
	}
	if got := l.writes.Load() - 2; got > 2 {
		t.Fatalf("16 pipelined GETs took %d server writes", got)
	}

	// 1000 mixed frames in one write: set, get, ping, del of one key per
	// group of four, so every reply is known.
	const n = 1000
	burst = burst[:0]
	first := c.seq + 1
	for i := 0; i < n; i++ {
		c.seq++
		key := []byte(fmt.Sprintf("mixed-%03d", i/4))
		req := Request{Op: []Op{OpSet, OpGet, OpPing, OpDel}[i%4], Tenant: uint8(i / 4 % 2), Seq: c.seq, Key: key}
		if req.Op == OpSet {
			req.Value = key
		}
		burst = AppendRequest(burst, &req)
	}
	before := l.writes.Load()
	go func() { _, _ = c.nc.Write(burst) }()
	for i := 0; i < n; i++ {
		r := c.next()
		if r.Seq != first+uint32(i) || r.Status != StatusOK {
			t.Fatalf("mixed frame %d: seq %d (want %d), %v", i, r.Seq, first+uint32(i), r.Status)
		}
		if want := fmt.Sprintf("mixed-%03d", i/4); i%4 == 1 && string(r.Value) != want {
			t.Fatalf("mixed frame %d: value %q, want %q", i, r.Value, want)
		}
	}
	if got := l.writes.Load() - before; got < n/outMaxResps || got > n/8 {
		t.Fatalf("%d frames took %d server writes, want at least %d (the response cap) and far fewer than one each",
			n, got, n/outMaxResps)
	}
	waitQuiet(t, s, 1, 1)
}

// TestSlowClientDropsBatches is slow-client protection with multi-response
// batches: a client that pipelines pings and never reads jams the writer on
// the first batch and the one-deep queue on the second; the third times out,
// the connection drops, and every response — written, queued or rolled back —
// leaves the in-flight accounting.
func TestSlowClientDropsBatches(t *testing.T) {
	cfg := testConfig()
	cfg.WriteQueue = 1
	cfg.EnqueueTimeout = 50 * time.Millisecond
	s, l := startPipeServer(t, cfg)
	c := l.dial(t)
	if r := c.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("ping: %v", r.Status)
	}
	s.mu.Lock()
	var sc *conn
	for sc = range s.conns {
	}
	s.mu.Unlock()

	var burst []byte
	for i := 0; i < 4*outMaxResps; i++ {
		burst = AppendRequest(burst, &Request{Op: OpPing, Seq: uint32(i)})
	}
	go func() { _, _ = c.nc.Write(burst) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.slowClients.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow client never detected")
		}
		time.Sleep(time.Millisecond)
	}
	// At the drop, one batch is in the writer's hands and one is queued.
	if got := s.adm.inflight.Load(); got != 2*outMaxResps {
		t.Fatalf("inflight %d at the drop, want two batches of %d", got, outMaxResps)
	}
	_ = c.nc.Close()
	waitQuiet(t, s, 1, 0)
	if p := sc.pending.Load(); p != 0 {
		t.Fatalf("dropped connection still has %d pending responses", p)
	}
	// The server itself stays healthy for other clients.
	if r := l.dial(t).mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("ping after slow-client drop: %v", r.Status)
	}
}

// TestDrainingResponseIsFlushed: a request that arrives on a draining server
// is answered StatusDraining, and the answer is written before the socket
// closes even though the reader returns without ever blocking again.
func TestDrainingResponseIsFlushed(t *testing.T) {
	s, l := startPipeServer(t, testConfig())
	c := l.dial(t)
	if r := c.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("ping: %v", r.Status)
	}
	// Only the flag: Shutdown would also wake the idle reader, which then
	// leaves without reading the request at all.
	s.draining.Store(true)
	defer s.draining.Store(false)
	if r := c.mustRPC(Request{Op: OpGet, Tenant: 0, Key: []byte("k")}); r.Status != StatusDraining {
		t.Fatalf("request on a draining server: %v, want draining", r.Status)
	}
	if _, err := c.br.ReadByte(); err != io.EOF {
		t.Fatalf("after the draining response: %v, want EOF", err)
	}
}
