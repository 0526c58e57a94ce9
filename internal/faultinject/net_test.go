package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// tcpPair builds a connected loopback pair without goroutines: dial fills
// the listen backlog, then Accept returns immediately.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	server, err = ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

func TestNetFaultsValidate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("probability 1.0 accepted")
		}
	}()
	NewNetInjector(1, NetFaults{Reset: 1.0})
}

func TestNetPassthrough(t *testing.T) {
	client, server := tcpPair(t)
	ni := NewNetInjector(1, NetFaults{})
	wrapped := ni.WrapConn(client)

	msg := []byte("clean frame")
	if n, err := wrapped.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("write: %d, %v", n, err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("passthrough corrupted: %q", got)
	}
	if err := wrapped.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if ni.Resets.Load()+ni.Torn.Load()+ni.Corrupted.Load()+ni.Stalls.Load() != 0 {
		t.Fatal("zero-rate injector injected a fault")
	}
}

func TestNetInjectedReset(t *testing.T) {
	client, server := tcpPair(t)
	ni := NewNetInjector(7, NetFaults{Reset: 0.99})
	wrapped := ni.WrapConn(client)

	frame := []byte("doomed")
	var err error
	for i := 0; i < 100 && ni.Resets.Load() == 0; i++ {
		_, err = wrapped.Write(frame)
		if err != nil {
			break
		}
	}
	if ni.Resets.Load() == 0 {
		t.Fatal("reset never injected at p=0.99")
	}
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("got %v, want ErrInjectedReset", err)
	}
	// The peer sees the connection die, not a phantom frame.
	if data, _ := io.ReadAll(server); len(data) != 0 {
		t.Fatalf("reset leaked %d bytes", len(data))
	}
}

func TestNetTornWrite(t *testing.T) {
	client, server := tcpPair(t)
	ni := NewNetInjector(3, NetFaults{TornWrite: 0.99})
	wrapped := ni.WrapConn(client)

	frame := []byte("0123456789abcdef")
	var err error
	for i := 0; i < 100 && ni.Torn.Load() == 0; i++ {
		_, err = wrapped.Write(frame)
		if err != nil {
			break
		}
	}
	if ni.Torn.Load() == 0 {
		t.Fatal("torn write never injected at p=0.99")
	}
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("got %v, want ErrInjectedReset", err)
	}
	data, _ := io.ReadAll(server)
	// Whatever arrived must end mid-frame: total delivered bytes are not a
	// multiple of the frame length (the last frame is a strict prefix).
	if len(data)%len(frame) == 0 {
		t.Fatalf("peer received %d bytes — no torn tail", len(data))
	}
}

func TestNetCorruptLen(t *testing.T) {
	client, server := tcpPair(t)
	ni := NewNetInjector(5, NetFaults{CorruptLen: 0.99})
	wrapped := ni.WrapConn(client)

	frame := []byte{9, 0, 0, 0, 'p', 'a', 'y', 'l', 'o', 'a', 'd', '!', '!'}
	orig := append([]byte(nil), frame...)
	if _, err := wrapped.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	if ni.Corrupted.Load() == 0 {
		t.Fatal("corruption never injected at p=0.99 on first write")
	}
	if !bytes.Equal(frame, orig) {
		t.Fatal("injector modified the caller's buffer")
	}
	got := make([]byte, len(frame))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if bytes.Equal(got[:4], frame[:4]) {
		t.Fatal("length prefix arrived intact despite corruption")
	}
	if !bytes.Equal(got[4:], frame[4:]) {
		t.Fatal("corruption leaked past the length prefix")
	}
}

func TestNetStallRead(t *testing.T) {
	client, server := tcpPair(t)
	ni := NewNetInjector(13, NetFaults{StallRead: 0.99, Stall: 1})
	wrapped := ni.WrapConn(server)

	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, 1)
	if _, err := io.ReadFull(wrapped, got); err != nil || got[0] != 'x' {
		t.Fatalf("stalled read lost data: %q, %v", got, err)
	}
	if ni.Stalls.Load() == 0 {
		t.Fatal("stall never injected at p=0.99 on first read")
	}
}

func TestNetWrapListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ni := NewNetInjector(17, NetFaults{Reset: 0.99})
	wrapped := ni.WrapListener(ln)
	defer wrapped.Close()

	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	server, err := wrapped.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	var werr error
	for i := 0; i < 100 && ni.Resets.Load() == 0; i++ {
		if _, werr = server.Write([]byte("frame")); werr != nil {
			break
		}
	}
	if ni.Resets.Load() == 0 || !errors.Is(werr, ErrInjectedReset) {
		t.Fatalf("accepted conn not faulted: resets=%d err=%v", ni.Resets.Load(), werr)
	}
}

// TestNetDeterminism: same seed, same connection order — identical fault
// sequence and counters.
func TestNetDeterminism(t *testing.T) {
	run := func() (resets, torn, corrupted uint64, trace []byte) {
		ni := NewNetInjector(42, NetFaults{Reset: 0.05, TornWrite: 0.1, CorruptLen: 0.2})
		for conn := 0; conn < 4; conn++ {
			client, server := tcpPair(t)
			wrapped := ni.WrapConn(client)
			for i := 0; i < 20; i++ {
				if _, err := wrapped.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
					break
				}
			}
			_ = wrapped.Close()
			data, _ := io.ReadAll(server)
			trace = append(trace, data...)
		}
		return ni.Resets.Load(), ni.Torn.Load(), ni.Corrupted.Load(), trace
	}
	r1, t1, c1, trace1 := run()
	r2, t2, c2, trace2 := run()
	if r1 != r2 || t1 != t2 || c1 != c2 {
		t.Fatalf("counters diverged: (%d,%d,%d) vs (%d,%d,%d)", r1, t1, c1, r2, t2, c2)
	}
	if r1+t1+c1 == 0 {
		t.Fatal("no faults injected across 80 writes")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("delivered byte streams diverged between identical runs")
	}
}
