package main

// The net target: fsload -net <addr> drives fsserve as a closed-loop TCP
// client fleet. Each worker owns one connection and drives synchronous
// request/response cycles (SETs at setFrac, GETs otherwise, over a zipf key
// stream per tenant) with:
//
//   - retry on transport error, up to maxRetries, under deterministic
//     exponential backoff from retryBase to retryMax with seeded jitter
//     (Backoff), reconnecting as needed;
//   - optional hedging (-hedge): a GET that has not answered within the
//     wait is reissued on a fresh connection and the reissue's response is
//     used (the late original dies with the dropped connection);
//   - optional client-side network fault injection (-faults, seeded with
//     faultSeed), so a soak proves the client/server pair re-converges after
//     bursts of resets, torn frames and corrupted prefixes.
//
// A request that exhausts its retries counts as failed (-maxerr). The rows
// come from a server stats fetch over a clean connection after the run,
// which also fails the run if the server recorded a panic.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"fscache/internal/faultinject"
	"fscache/internal/server"
	"fscache/internal/xrand"
)

type netTarget struct {
	o       options
	tenants int
	inj     *faultinject.NetInjector
	clients []*client
}

func newNetTarget(o options) (*netTarget, error) {
	pre, err := fetchStats(o.net)
	if err != nil {
		return nil, fmt.Errorf("cannot reach server at %s: %v", o.net, err)
	}
	t := &netTarget{o: o, tenants: len(pre.Tenants), clients: make([]*client, o.workers)}
	if o.faults {
		t.inj = faultinject.NewNetInjector(faultSeed, faultinject.NetFaults{
			Reset:      0.005,
			TornWrite:  0.005,
			CorruptLen: 0.005,
			StallRead:  0.002,
			Stall:      2 * time.Millisecond,
		})
	}
	return t, nil
}

func (t *netTarget) describe() string {
	return fmt.Sprintf("net against %s, %d tenants (setfrac %.2f, deadline %v, hedge %v, faults %v)",
		t.o.net, t.tenants, setFrac, t.o.deadline, t.o.hedge, t.o.faults)
}

// latCap: loopback RTTs are tens of microseconds; anything past 10ms is tail
// enough to clamp.
func (t *netTarget) latCap() time.Duration { return 10 * time.Millisecond }

func (t *netTarget) worker(i int, stop *atomic.Bool) step {
	rng := xrand.New(xrand.Mix64(t.o.seed^0x5e12e) ^ xrand.Mix64(uint64(i+1)))
	c := &client{
		o:       &t.o,
		inj:     t.inj,
		stop:    stop,
		backoff: NewBackoff(t.o.seed ^ uint64(i+1)),
	}
	t.clients[i] = c
	zipf := xrand.NewZipf(rng, 0.9, 4*t.o.keys)
	val := []byte("fsload-value-payload-0123456789")
	req := server.Request{Key: make([]byte, 0, 32)}
	if t.o.deadline > 0 {
		req.DeadlineUS = uint32(t.o.deadline / time.Microsecond)
	}
	return func() (int, time.Duration, bool) {
		req.Tenant = uint8(rng.Intn(t.tenants))
		req.Key = fmt.Appendf(req.Key[:0], "t%d-k%08d", req.Tenant, zipf.Next()%t.o.keys)
		req.Op, req.Value = server.OpGet, nil
		if rng.Bool(setFrac) {
			req.Op, req.Value = server.OpSet, val
		}
		t0 := time.Now()
		resp, err := c.rpc(&req)
		lat := time.Since(t0)
		if err != nil {
			return 1, lat, false
		}
		if int(resp.Status) < len(c.statuses) {
			c.statuses[resp.Status]++
		}
		if resp.Flags&server.FlagStale != 0 {
			c.stale++
		}
		return 1, lat, true
	}
}

func (t *netTarget) finish(uint64) ([]partRow, []string, error) {
	var retries, hedges, reconnects, stale uint64
	var statuses [8]uint64
	for _, c := range t.clients {
		c.dropConn()
		retries += c.retries
		hedges += c.hedges
		reconnects += c.reconnects
		stale += c.stale
		for s, n := range c.statuses {
			statuses[s] += n
		}
	}
	notes := []string{
		fmt.Sprintf("client: %d retries, %d hedges, %d reconnects", retries, hedges, reconnects),
		fmt.Sprintf("status: ok %d, notfound %d, shed %d, deadline %d, overload %d, draining %d, badreq %d, error %d (stale serves %d)",
			statuses[server.StatusOK], statuses[server.StatusNotFound], statuses[server.StatusShed],
			statuses[server.StatusDeadline], statuses[server.StatusOverload], statuses[server.StatusDraining],
			statuses[server.StatusBadRequest], statuses[server.StatusError], stale),
	}
	if t.inj != nil {
		notes = append(notes, fmt.Sprintf("faults injected: %d resets, %d torn, %d corrupted, %d stalls",
			t.inj.Resets.Load(), t.inj.Torn.Load(), t.inj.Corrupted.Load(), t.inj.Stalls.Load()))
	}
	post, err := fetchStats(t.o.net)
	if err != nil {
		return nil, notes, fmt.Errorf("final stats fetch: %v", err)
	}
	rows := make([]partRow, len(post.Tenants))
	for i, ts := range post.Tenants {
		rows[i] = partRow{
			target:  ts.Target,
			size:    ts.Size,
			meanOcc: ts.MeanOccupancy,
			miss:    ts.MissRate,
			note:    fmt.Sprintf("%s, shed %d, stale %d", ts.Class, ts.Shed, ts.StaleServes),
		}
	}
	notes = append(notes, fmt.Sprintf("server: %d bad frames, %d slow clients, %d panics",
		post.BadFrames, post.SlowClients, post.Panics))
	if post.Panics > 0 {
		err = fmt.Errorf("server recorded %d panic(s)", post.Panics)
	}
	return rows, notes, err
}

// client is one worker's connection and its private counters.
type client struct {
	o       *options
	inj     *faultinject.NetInjector
	stop    *atomic.Bool
	backoff *Backoff

	nc  net.Conn
	br  *bufio.Reader
	seq uint32
	buf []byte

	retries, hedges, reconnects, stale uint64
	statuses                           [8]uint64
}

var errNoResponse = errors.New("no response within retry budget")

func (c *client) dial() error {
	nc, err := net.Dial("tcp", c.o.net)
	if err != nil {
		return err
	}
	if c.inj != nil {
		nc = c.inj.WrapConn(nc)
	}
	c.nc = nc
	c.br = bufio.NewReader(nc)
	return nil
}

func (c *client) dropConn() {
	if c.nc != nil {
		_ = c.nc.Close()
		c.nc = nil
		c.br = nil
	}
}

// rpc drives one request to completion: write, await the matching seq,
// retry on transport failure with backoff, optionally hedging slow GETs.
func (c *client) rpc(req *server.Request) (server.Response, error) {
	hedging := c.o.hedge > 0 && req.Op == server.OpGet
	for attempt := 1; ; attempt++ {
		if c.stop.Load() {
			return server.Response{}, errNoResponse
		}
		if c.nc == nil {
			if err := c.dial(); err != nil {
				c.reconnects++
				if attempt > maxRetries {
					return server.Response{}, err
				}
				c.retries++
				time.Sleep(c.backoff.Delay(attempt))
				continue
			}
		}
		c.seq++
		req.Seq = c.seq
		frame := server.AppendRequest(c.buf[:0], req)
		c.buf = frame[:0]

		wait := netTimeout
		if hedging && c.o.hedge < wait {
			wait = c.o.hedge
		}
		_ = c.nc.SetWriteDeadline(time.Now().Add(netTimeout))
		_, err := c.nc.Write(frame)
		if err == nil {
			var resp server.Response
			resp, err = c.awaitSeq(req.Seq, wait)
			if err == nil {
				return resp, nil
			}
		}
		// Transport failure or timeout: the connection's framing state is
		// unknown, so drop it and retry (or hedge) on a fresh one.
		c.dropConn()
		c.reconnects++
		var ne net.Error
		if hedging && errors.As(err, &ne) && ne.Timeout() {
			// Hedge once: reissue at once on a new connection; the original
			// request's late response dies with the dropped conn.
			hedging = false
			c.hedges++
			continue
		}
		if attempt > maxRetries {
			return server.Response{}, errNoResponse
		}
		c.retries++
		time.Sleep(c.backoff.Delay(attempt))
	}
}

// awaitSeq reads frames until seq matches (discarding stale responses from
// abandoned requests) or the wait expires.
func (c *client) awaitSeq(seq uint32, wait time.Duration) (server.Response, error) {
	_ = c.nc.SetReadDeadline(time.Now().Add(wait))
	for {
		var err error
		c.buf, err = server.ReadFrame(c.br, c.buf)
		if err != nil {
			return server.Response{}, err
		}
		resp, err := server.ParseResponse(c.buf)
		if err != nil {
			return server.Response{}, err
		}
		if resp.Seq == seq {
			// Value aliases c.buf, which the next rpc reuses; copy out.
			resp.Value = append([]byte(nil), resp.Value...)
			return resp, nil
		}
	}
}

// fetchStats asks the server for a stats snapshot over a clean connection
// (no fault injection: this is the measurement path).
func fetchStats(addr string) (server.StatsSnapshot, error) {
	var snap server.StatsSnapshot
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return snap, err
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(netTimeout))
	req := server.Request{Op: server.OpStats, Seq: 1}
	if _, err := nc.Write(server.AppendRequest(nil, &req)); err != nil {
		return snap, err
	}
	buf, err := server.ReadFrame(bufio.NewReader(nc), nil)
	if err != nil {
		return snap, err
	}
	resp, err := server.ParseResponse(buf)
	if err != nil {
		return snap, err
	}
	if resp.Status != server.StatusOK {
		return snap, fmt.Errorf("stats request answered %v", resp.Status)
	}
	if err := json.Unmarshal(resp.Value, &snap); err != nil {
		return snap, fmt.Errorf("stats payload: %w", err)
	}
	return snap, nil
}
