package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
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
	cfg.softInflight = 1 << 20
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
// batches: a client that pipelines pings and never reads blocks the first
// full batch's write; the write times out, the connection drops, and the
// batch leaves the in-flight accounting.
func TestSlowClientDropsBatches(t *testing.T) {
	cfg := testConfig()
	cfg.slowWrite = 50 * time.Millisecond
	// The drop is logged before it is counted, with the batch still in
	// flight, so the log line can see what the drop held.
	var srv atomic.Pointer[Server]
	atDrop := atomic.Int64{}
	cfg.Logf = func(format string, args ...interface{}) {
		if strings.HasPrefix(format, "server: slow client") {
			atDrop.Store(srv.Load().adm.inflight.Load())
		}
	}
	s, l := startPipeServer(t, cfg)
	srv.Store(s)
	c := l.dial(t)
	if r := c.mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
		t.Fatalf("ping: %v", r.Status)
	}

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
	if got := s.slowClients.Load(); got != 1 {
		t.Fatalf("%d slow clients, want 1", got)
	}
	// At the drop, the one batch whose write blocked is in flight.
	if got := atDrop.Load(); got != outMaxResps {
		t.Fatalf("inflight %d at the drop, want one batch of %d", got, outMaxResps)
	}
	_ = c.nc.Close()
	waitQuiet(t, s, 1, 0) // and inflight back to 0
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
	// The length prefix returns from the pipe write only once the reader
	// has taken it, so the reader is inside ReadFrame, past its draining
	// check, when the flag goes up. Only the flag: Shutdown would
	// also wake the reader, which then leaves without the request.
	frame := AppendRequest(nil, &Request{Op: OpGet, Tenant: 0, Seq: 2, Key: []byte("k")})
	if _, err := c.nc.Write(frame[:lenPrefixSize]); err != nil {
		t.Fatal(err)
	}
	s.draining.Store(true)
	defer s.draining.Store(false)
	if _, err := c.nc.Write(frame[lenPrefixSize:]); err != nil {
		t.Fatal(err)
	}
	if r := c.next(); r.Seq != 2 || r.Status != StatusDraining {
		t.Fatalf("request on a draining server: seq %d %v, want 2 draining", r.Seq, r.Status)
	}
	if _, err := c.br.ReadByte(); err != io.EOF {
		t.Fatalf("after the draining response: %v, want EOF", err)
	}
}

// serverGoroutines counts the goroutines other than the caller's with a
// frame in this package.
func serverGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	// The caller's stack comes first.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "fscache/internal/server.") {
				count++
				break
			}
		}
	}
	return count
}

// TestGoroutineBudget: with n idle connections the server runs n + 1
// goroutines, the accept loop and one per connection, and none once it has
// shut down.
func TestGoroutineBudget(t *testing.T) {
	s := startServer(t, testConfig())
	const n = 4
	for i := 0; i < n; i++ {
		if r := dialTest(t, s).mustRPC(Request{Op: OpPing}); r.Status != StatusOK {
			t.Fatalf("ping: %v", r.Status)
		}
	}
	waitGoroutines := func(want int) {
		t.Helper()
		got := serverGoroutines()
		for deadline := time.Now().Add(2 * time.Second); got != want && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			got = serverGoroutines()
		}
		if got != want {
			t.Fatalf("%d server goroutines, want %d", got, want)
		}
	}
	waitGoroutines(n + 1)
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(0)
}
