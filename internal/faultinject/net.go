// Package faultinject wraps connections and listeners with seeded network
// faults: a NetInjector resets them, tears their writes, corrupts frame
// length prefixes or stalls their reads at the rates a NetFaults sets
// (fsserve -faults, fsload -faults and the server's soak tests).
//
// Every fault is drawn from an internal/xrand stream, so a faulted run is as
// reproducible as a clean one: the same seed injects the same faults at the
// same points.
package faultinject

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fscache/internal/xrand"
)

// ErrInjectedReset marks a connection the injector killed on purpose, so
// soak harnesses can tell injected faults from real ones.
var ErrInjectedReset = errors.New("faultinject: injected connection reset")

// NetFaults configures per-frame network fault probabilities for a
// NetInjector. All probabilities are per Write (or per Read for StallRead)
// and must be in [0, 1).
//
// The write-side faults assume every Write call starts on a protocol frame
// boundary — the fsload network client writes one frame per call,
// internal/server one batch of whole frames — so "flip a bit in the first
// four bytes" is precisely "corrupt a length prefix" without the injector
// having to parse the stream.
type NetFaults struct {
	// Reset closes the connection instead of writing the frame.
	Reset float64
	// TornWrite delivers a strict prefix of the frame, then closes the
	// connection: the peer sees a frame boundary violated mid-payload.
	TornWrite float64
	// CorruptLen flips one random bit in the frame's first four bytes
	// (the length prefix), turning the stream into garbage the peer must
	// reject without over-allocating.
	CorruptLen float64
	// StallRead sleeps Stall before delivering read bytes: a slow or
	// wedged peer, from this side's point of view.
	StallRead float64
	// Stall is the read-stall duration.
	Stall time.Duration
}

func (f NetFaults) validate() {
	for _, p := range []float64{f.Reset, f.TornWrite, f.CorruptLen, f.StallRead} {
		if p < 0 || p >= 1 {
			panic("faultinject: net fault probabilities must be in [0, 1)")
		}
	}
}

// NetInjector wraps listeners and connections with seeded fault behavior.
// Each wrapped connection draws from its own xrand streams (one for the
// read side, one for the write side, so concurrent Read/Write stay
// race-free), derived from the injector seed and the connection's accept
// index. Given the same seed and the same connection order, the fault
// sequence is identical run to run.
type NetInjector struct {
	seed  uint64
	rates NetFaults

	next atomic.Uint64 // connection index for seed derivation

	// Resets, Torn, Corrupted and Stalls count injected faults across all
	// wrapped connections.
	Resets    atomic.Uint64
	Torn      atomic.Uint64
	Corrupted atomic.Uint64
	Stalls    atomic.Uint64
}

// NewNetInjector builds an injector; seed drives every fault decision.
func NewNetInjector(seed uint64, rates NetFaults) *NetInjector {
	rates.validate()
	return &NetInjector{seed: seed, rates: rates}
}

// WrapConn wraps one connection with fault behavior.
func (ni *NetInjector) WrapConn(nc net.Conn) net.Conn {
	idx := ni.next.Add(1)
	return &faultConn{
		Conn: nc,
		inj:  ni,
		rrng: xrand.New(xrand.Mix64(ni.seed ^ (2*idx + 0))),
		wrng: xrand.New(xrand.Mix64(ni.seed ^ (2*idx + 1))),
	}
}

// WrapListener wraps a listener so every accepted connection is faulted.
func (ni *NetInjector) WrapListener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, inj: ni}
}

type faultListener struct {
	net.Listener
	inj *NetInjector
}

func (l *faultListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.WrapConn(nc), nil
}

// faultConn injects faults on the write path and stalls on the read path.
// The net.Conn contract allows one concurrent Read and one concurrent
// Write; each side has its own mutex-guarded rng, so the wrapper adds no
// shared unsynchronized state.
type faultConn struct {
	net.Conn
	inj *NetInjector

	rmu sync.Mutex
	//fs:guardedby rmu
	rrng *xrand.Rand

	wmu sync.Mutex
	//fs:guardedby wmu
	wrng *xrand.Rand
}

func (c *faultConn) Read(b []byte) (int, error) {
	rates := c.inj.rates
	if rates.StallRead > 0 {
		c.rmu.Lock()
		stall := c.rrng.Bool(rates.StallRead)
		c.rmu.Unlock()
		if stall {
			c.inj.Stalls.Add(1)
			time.Sleep(rates.Stall)
		}
	}
	return c.Conn.Read(b)
}

func (c *faultConn) Write(b []byte) (int, error) {
	rates := c.inj.rates
	c.wmu.Lock()
	defer c.wmu.Unlock()

	if rates.Reset > 0 && c.wrng.Bool(rates.Reset) {
		c.inj.Resets.Add(1)
		_ = c.Conn.Close()
		return 0, ErrInjectedReset
	}
	if rates.TornWrite > 0 && len(b) > 1 && c.wrng.Bool(rates.TornWrite) {
		c.inj.Torn.Add(1)
		n := 1 + c.wrng.Intn(len(b)-1) // strict prefix, at least one byte
		written, err := c.Conn.Write(b[:n])
		_ = c.Conn.Close()
		if err != nil {
			return written, err
		}
		return written, ErrInjectedReset
	}

	frame := b
	if rates.CorruptLen > 0 && len(b) >= 4 && c.wrng.Bool(rates.CorruptLen) {
		c.inj.Corrupted.Add(1)
		// io.Writer forbids modifying b; corrupt a copy.
		frame = append([]byte(nil), b...)
		frame[c.wrng.Intn(4)] ^= 1 << uint(c.wrng.Intn(8))
	}

	return c.Conn.Write(frame)
}
