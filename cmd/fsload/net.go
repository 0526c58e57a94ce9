package main

// Network mode: fsload -net <addr> turns the load generator into a
// closed-loop TCP client fleet for fsserve. Each worker owns one
// connection and drives synchronous request/response cycles with:
//
//   - retry on transport error with deterministic exponential backoff and
//     seeded jitter (Backoff), reconnecting as needed;
//   - optional hedging: a GET that has not answered within -hedge is
//     reissued on a fresh connection and the reissue's response is used
//     (late originals are discarded by sequence matching);
//   - optional client-side network fault injection (-faults), so a soak
//     proves the client/server pair re-converges after bursts of resets,
//     torn frames and corrupted prefixes;
//   - per-worker latency histograms and status accounting, plus a final
//     server stats fetch that reports each tenant's occupancy error.
//
// With -maxocc / -maxerr set, fsload exits non-zero when the run's worst
// tenant occupancy error or transport error rate exceeds the threshold —
// the CI soak gate.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fscache/internal/faultinject"
	"fscache/internal/server"
	"fscache/internal/stats"
	"fscache/internal/xrand"
)

// netLatCap is the network-mode latency full scale (loopback RTTs are tens
// of microseconds; anything past 10ms is tail enough to clamp).
const netLatCap = 10 * time.Millisecond

type netOpts struct {
	addr      string
	workers   int
	duration  time.Duration
	seed      uint64
	setFrac   float64
	keySpace  int
	deadline  time.Duration // wire deadline sent with each request; 0 = none
	timeout   time.Duration // client-side wait for a response
	retries   int
	retryBase time.Duration
	retryMax  time.Duration
	hedge     time.Duration // 0 disables hedging
	faults    bool
	faultSeed uint64
	maxOcc    float64 // threshold on worst tenant occupancy error; <0 = off
	maxErr    float64 // threshold on transport error rate; <0 = off
}

// netWorker is one closed-loop client connection and its private stats.
type netWorker struct {
	id   int
	opts *netOpts
	inj  *faultinject.NetInjector
	stop *atomic.Bool

	rng     *xrand.Rand
	zipf    *xrand.Zipf
	backoff *Backoff

	nc  net.Conn
	br  *bufio.Reader
	seq uint32
	buf []byte

	ops, reqErrs, retries, hedges, reconnects, stale uint64
	statuses                                         [8]uint64
	hist                                             *stats.Histogram
}

var errNoResponse = errors.New("no response within retry budget")

func (w *netWorker) dial() error {
	nc, err := net.Dial("tcp", w.opts.addr)
	if err != nil {
		return err
	}
	if w.inj != nil {
		nc = w.inj.WrapConn(nc)
	}
	w.nc = nc
	w.br = bufio.NewReader(nc)
	return nil
}

func (w *netWorker) dropConn() {
	if w.nc != nil {
		_ = w.nc.Close()
		w.nc = nil
		w.br = nil
	}
}

// rpc drives one request to completion: write, await the matching seq,
// retry on transport failure with backoff, optionally hedging slow GETs.
func (w *netWorker) rpc(req *server.Request) (server.Response, error) {
	hedged := false
	for attempt := 1; ; attempt++ {
		if w.stop.Load() {
			return server.Response{}, errNoResponse
		}
		if w.nc == nil {
			if err := w.dial(); err != nil {
				w.reconnects++
				if attempt > w.opts.retries {
					return server.Response{}, err
				}
				w.retries++
				time.Sleep(w.backoff.Delay(attempt))
				continue
			}
		}
		w.seq++
		req.Seq = w.seq
		frame := server.AppendRequest(w.buf[:0], req)
		w.buf = frame[:0]

		wait := w.opts.timeout
		if w.opts.hedge > 0 && !hedged && req.Op == server.OpGet && w.opts.hedge < wait {
			wait = w.opts.hedge
		}
		_ = w.nc.SetWriteDeadline(time.Now().Add(w.opts.timeout))
		_, err := w.nc.Write(frame)
		if err == nil {
			var resp server.Response
			resp, err = w.awaitSeq(req.Seq, wait)
			if err == nil {
				return resp, nil
			}
		}
		// Transport failure or timeout: the connection's framing state is
		// unknown, so drop it and retry (or hedge) on a fresh one.
		w.dropConn()
		w.reconnects++
		if w.opts.hedge > 0 && !hedged && req.Op == server.OpGet && isTimeout(err) {
			// Hedge: reissue immediately on a new connection; the original
			// request's late response dies with the dropped conn.
			hedged = true
			w.hedges++
			continue
		}
		if attempt > w.opts.retries {
			return server.Response{}, errNoResponse
		}
		w.retries++
		time.Sleep(w.backoff.Delay(attempt))
	}
}

// awaitSeq reads frames until seq matches (discarding stale responses from
// abandoned requests) or the wait expires.
func (w *netWorker) awaitSeq(seq uint32, wait time.Duration) (server.Response, error) {
	_ = w.nc.SetReadDeadline(time.Now().Add(wait))
	for {
		var err error
		w.buf, err = server.ReadFrame(w.br, w.buf)
		if err != nil {
			return server.Response{}, err
		}
		resp, err := server.ParseResponse(w.buf)
		if err != nil {
			return server.Response{}, err
		}
		if resp.Seq == seq {
			// Value aliases w.buf, which the next rpc reuses; copy out.
			resp.Value = append([]byte(nil), resp.Value...)
			return resp, nil
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (w *netWorker) run(tenants int) {
	keybuf := make([]byte, 0, 32)
	val := []byte("fsload-value-payload-0123456789")
	for !w.stop.Load() {
		tenant := uint8(w.rng.Intn(tenants))
		keybuf = fmt.Appendf(keybuf[:0], "t%d-k%08d", tenant, w.zipf.Next()%w.opts.keySpace)
		req := server.Request{Tenant: tenant, Key: keybuf}
		if w.rng.Bool(w.opts.setFrac) {
			req.Op = server.OpSet
			req.Value = val
		} else {
			req.Op = server.OpGet
		}
		if w.opts.deadline > 0 {
			req.DeadlineUS = uint32(w.opts.deadline / time.Microsecond)
		}
		t0 := time.Now()
		resp, err := w.rpc(&req)
		lat := time.Since(t0)
		w.ops++
		if err != nil {
			w.reqErrs++
			continue
		}
		w.hist.Add(float64(lat) / float64(netLatCap))
		if int(resp.Status) < len(w.statuses) {
			w.statuses[resp.Status]++
		}
		if resp.Flags&server.FlagStale != 0 {
			w.stale++
		}
	}
	w.dropConn()
}

// fetchStats asks the server for a stats snapshot over a clean connection
// (no fault injection — this is the measurement path).
func fetchStats(addr string, timeout time.Duration) (server.StatsSnapshot, error) {
	var snap server.StatsSnapshot
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return snap, err
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(timeout))
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

// runNet executes network mode and returns the process exit code.
func runNet(o netOpts) int {
	pre, err := fetchStats(o.addr, o.timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsload: cannot reach server at %s: %v\n", o.addr, err)
		return 1
	}
	tenants := len(pre.Tenants)
	fmt.Printf("fsload: net mode against %s: %d tenants, %d workers, %v (setfrac %.2f, deadline %v, hedge %v, faults %v)\n",
		o.addr, tenants, o.workers, o.duration, o.setFrac, o.deadline, o.hedge, o.faults)

	var inj *faultinject.NetInjector
	if o.faults {
		inj = faultinject.NewNetInjector(o.faultSeed, faultinject.NetFaults{
			Reset:      0.005,
			TornWrite:  0.005,
			CorruptLen: 0.005,
			StallRead:  0.002,
			Stall:      2 * time.Millisecond,
		})
	}

	var stop atomic.Bool
	ws := make([]*netWorker, o.workers)
	for i := range ws {
		rng := xrand.New(xrand.Mix64(o.seed^0x5e12e) ^ xrand.Mix64(uint64(i+1)))
		ws[i] = &netWorker{
			id:      i,
			opts:    &o,
			inj:     inj,
			stop:    &stop,
			rng:     rng,
			zipf:    xrand.NewZipf(rng, 0.9, 4*o.keySpace),
			backoff: NewBackoff(o.retryBase, o.retryMax, 0.2, o.seed^uint64(i+1)),
			hist:    stats.NewHistogram(latBuckets),
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func(w *netWorker) {
			defer wg.Done()
			w.run(tenants)
		}(w)
	}
	time.Sleep(o.duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var total, reqErrs, retries, hedges, reconnects, stale uint64
	var statuses [8]uint64
	merged := stats.NewHistogram(latBuckets)
	for _, w := range ws {
		total += w.ops
		reqErrs += w.reqErrs
		retries += w.retries
		hedges += w.hedges
		reconnects += w.reconnects
		stale += w.stale
		for s, n := range w.statuses {
			statuses[s] += n
		}
		merged.Merge(w.hist)
	}
	fmt.Printf("\n  total: %d requests in %v (%.1fk req/s), %d transport errors, %d retries, %d hedges, %d reconnects\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds()/1e3,
		reqErrs, retries, hedges, reconnects)
	fmt.Printf("  status: ok %d, notfound %d, shed %d, deadline %d, overload %d, draining %d, badreq %d, error %d (stale serves %d)\n",
		statuses[server.StatusOK], statuses[server.StatusNotFound], statuses[server.StatusShed],
		statuses[server.StatusDeadline], statuses[server.StatusOverload], statuses[server.StatusDraining],
		statuses[server.StatusBadRequest], statuses[server.StatusError], stale)
	fmt.Printf("  latency: p50 %v  p90 %v  p99 %v\n",
		netLatQ(merged, 0.5), netLatQ(merged, 0.9), netLatQ(merged, 0.99))
	if inj != nil {
		fmt.Printf("  faults injected: %d resets, %d torn, %d corrupted, %d stalls\n",
			inj.Resets.Load(), inj.Torn.Load(), inj.Corrupted.Load(), inj.Stalls.Load())
	}

	post, err := fetchStats(o.addr, o.timeout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsload: final stats fetch failed: %v\n", err)
		return 1
	}
	// The gate uses the instantaneous partition size (Size), not the
	// time-averaged MeanOccupancy: the mean includes the cold-fill ramp,
	// which would dominate any short soak. Size is what the partitions
	// converged to by the end of the run.
	fmt.Printf("\n  %-8s %-12s %8s %8s %10s %10s %10s %10s\n",
		"tenant", "class", "target", "size", "error", "meanocc", "shed", "stale")
	worstOcc := 0.0
	for i, t := range post.Tenants {
		errFrac := 0.0
		if t.Target > 0 {
			errFrac = math.Abs(float64(t.Size-t.Target)) / float64(t.Target)
		}
		if errFrac > worstOcc {
			worstOcc = errFrac
		}
		fmt.Printf("  %-8d %-12s %8d %8d %9.1f%% %10.1f %10d %10d\n",
			i, t.Class, t.Target, t.Size, 100*errFrac, t.MeanOccupancy, t.Shed, t.StaleServes)
	}
	fmt.Printf("\n  server: %d bad frames, %d slow clients, %d panics; worst occupancy error %.1f%%\n",
		post.BadFrames, post.SlowClients, post.Panics, 100*worstOcc)

	code := 0
	if post.Panics > 0 {
		fmt.Fprintf(os.Stderr, "fsload: FAIL: server recorded %d panic(s)\n", post.Panics)
		code = 1
	}
	errRate := 0.0
	if total > 0 {
		errRate = float64(reqErrs) / float64(total)
	}
	if o.maxErr >= 0 && errRate > o.maxErr {
		fmt.Fprintf(os.Stderr, "fsload: FAIL: transport error rate %.2f%% exceeds -maxerr %.2f%%\n",
			100*errRate, 100*o.maxErr)
		code = 1
	}
	if o.maxOcc >= 0 && worstOcc > o.maxOcc {
		fmt.Fprintf(os.Stderr, "fsload: FAIL: worst occupancy error %.1f%% exceeds -maxocc %.1f%%\n",
			100*worstOcc, 100*o.maxOcc)
		code = 1
	}
	if total == 0 {
		fmt.Fprintln(os.Stderr, "fsload: FAIL: no requests completed")
		code = 1
	}
	return code
}

func netLatQ(h *stats.Histogram, q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(netLatCap)).Round(time.Microsecond)
}
