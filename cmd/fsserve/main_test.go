package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fscache/internal/server"
)

// syncBuffer collects run's stderr, which the server's connection
// goroutines also log to.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// served is one fsserve run on a loopback port.
type served struct {
	addr   string
	stop   context.CancelFunc
	code   chan int
	stderr *syncBuffer
}

// serve starts fsserve with args and waits for the -addrfile handshake that
// scripts use to find the port.
func serve(t *testing.T, args ...string) *served {
	t.Helper()
	addrfile := filepath.Join(t.TempDir(), "addr")
	ctx, stop := context.WithCancel(context.Background())
	s := &served{stop: stop, code: make(chan int, 1), stderr: &syncBuffer{}}
	go func() {
		s.code <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrfile}, args...), s.stderr)
	}()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		select {
		case code := <-s.code:
			t.Fatalf("fsserve exited %d before listening:\n%s", code, s.stderr)
		default:
		}
		if b, err := os.ReadFile(addrfile); err == nil && strings.HasSuffix(string(b), "\n") {
			s.addr = strings.TrimSpace(string(b))
			return s
		}
	}
	stop()
	t.Fatalf("fsserve never wrote its address:\n%s", s.stderr)
	return nil
}

// exit sends the stop signal and returns the exit code.
func (s *served) exit(t *testing.T) int {
	t.Helper()
	s.stop()
	select {
	case code := <-s.code:
		return code
	case <-time.After(30 * time.Second):
		t.Fatalf("fsserve did not exit after the stop signal:\n%s", s.stderr)
		return 0
	}
}

// client is one synchronous connection.
type client struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &client{nc: nc, br: bufio.NewReader(nc)}
}

func (c *client) send(t *testing.T, req server.Request) {
	t.Helper()
	if _, err := c.nc.Write(server.AppendRequest(nil, &req)); err != nil {
		t.Fatal(err)
	}
}

func (c *client) rpc(t *testing.T, req server.Request) server.Response {
	t.Helper()
	c.send(t, req)
	var err error
	if c.buf, err = server.ReadFrame(c.br, c.buf); err != nil {
		t.Fatal(err)
	}
	resp, err := server.ParseResponse(c.buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCleanDrainExitsZero(t *testing.T) {
	s := serve(t)
	c := dial(t, s.addr)
	if r := c.rpc(t, server.Request{Op: server.OpSet, Key: []byte("k"), Value: []byte("v")}); r.Status != server.StatusOK {
		t.Fatalf("set: %v", r.Status)
	}
	if r := c.rpc(t, server.Request{Op: server.OpGet, Key: []byte("k")}); r.Status != server.StatusOK || string(r.Value) != "v" {
		t.Fatalf("get: %v %q", r.Status, r.Value)
	}
	if code := s.exit(t); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, s.stderr)
	}
	for _, want := range []string{"drained cleanly", "served 1 conn(s), 1 store entries"} {
		if !strings.Contains(s.stderr.String(), want) {
			t.Errorf("no %q in stderr:\n%s", want, s.stderr)
		}
	}
}

// A client that stops reading leaves its responses unwritten, so the drain
// times out and force-closes it.
func TestForcedDrainExitsOne(t *testing.T) {
	s := serve(t, "-draintimeout", "100ms")
	c := dial(t, s.addr)
	value := bytes.Repeat([]byte{'x'}, 256<<10)
	if r := c.rpc(t, server.Request{Op: server.OpSet, Key: []byte("big"), Value: value}); r.Status != server.StatusOK {
		t.Fatalf("set: %v", r.Status)
	}
	// 32 GETs in one write are one pipelined run: the server admits them
	// together, and their 32 responses of 256 KiB outgrow the socket
	// buffers on both ends (4 MiB of send buffer at most on Linux), so a
	// response write blocks whatever the drain does meanwhile. The drain
	// gives up before the 1 s slow-client bound would drop the client.
	var burst []byte
	for i := 0; i < 32; i++ {
		burst = server.AppendRequest(burst, &server.Request{Op: server.OpGet, Seq: uint32(i + 1), Key: []byte("big")})
	}
	if _, err := c.nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	stats := dial(t, s.addr)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var snap server.StatsSnapshot
		if err := json.Unmarshal(stats.rpc(t, server.Request{Op: server.OpStats}).Value, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Inflight > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no response write stalled")
		}
	}
	if code := s.exit(t); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, s.stderr)
	}
	if !strings.Contains(s.stderr.String(), "drain timeout, force-closed 1 connection(s)") {
		t.Errorf("stderr does not report the forced close:\n%s", s.stderr)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	const spec = "../../examples/scenarios/mixed-tenants.yaml"
	cases := []struct {
		args []string
		want string // in stderr
	}{
		{[]string{"-scenario", spec, "-tenants", "g"}, "-tenants cannot be combined with -scenario"},
		{[]string{"-scenario", spec, "-targets", "1,2"}, "-targets cannot be combined with -scenario"},
		{[]string{"-scenario", spec, "-lines", "512"}, "-lines cannot be combined with -scenario"},
		{[]string{"-rebalance", "250ms"}, "flag provided but not defined: -rebalance"},
		{[]string{"-tenants", "x"}, "bad tenant class"},
		{[]string{"-targets", "1,x"}, "bad target"},
		{[]string{"-ways", "8"}, "flag provided but not defined: -ways"},
	}
	// Cancelled up front: a case that wrongly starts serving drains at
	// once and returns 0 instead of hanging.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		var stderr syncBuffer
		code := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: exit %d, want 2 with %q in stderr:\n%s", tc.args, code, tc.want, stderr.String())
		}
	}
}

// A line count the engine cannot be built with is a usage error: one line
// naming it and exit 2, not a panic.
func TestBadGeometryExitsTwo(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // as above: a wrongly accepted config drains at once
	var stderr syncBuffer
	code := run(ctx, []string{"-addr", "127.0.0.1:0", "-lines", "100"}, &stderr)
	if want := "fsserve: Lines must be a positive power of two\n"; code != 2 || stderr.String() != want {
		t.Fatalf("exit %d, want 2 with the one line %q:\n%s", code, want, stderr.String())
	}
}

// Targets that do not sum to the capacity are the server's to reject.
func TestTargetsMustSumToLines(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // as above: a wrongly accepted config drains at once
	var stderr syncBuffer
	code := run(ctx, []string{"-addr", "127.0.0.1:0", "-lines", "512", "-targets", "342,171"}, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "summing to Cache.Lines (512)") {
		t.Fatalf("exit %d, want 1 naming the line budget:\n%s", code, stderr.String())
	}
}
