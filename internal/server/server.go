package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/shardcache"
	"fscache/internal/stats"
)

// Latency histogram scale: handler latencies are recorded as lat/latCap
// clamped to [0,1], so quantiles resolve to latCap/latBuckets (~2µs) and
// anything slower than latCap lands in the top bucket.
const (
	latCap     = time.Millisecond
	latBuckets = 512
)

// Config assembles a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// Tenants configures each tenant; tenant i maps to FS partition i.
	// len(Tenants) must equal Cache.Parts.
	Tenants []TenantConfig
	// Cache configures the backing shardcache engine.
	Cache shardcache.Config
	// Targets are the cache-wide per-partition line targets: non-negative
	// and summing to Cache.Lines. When nil the capacity is split evenly
	// across tenants.
	Targets []int
	// Rebalance is the allocator poll cadence, ignored without Alloc.
	Rebalance time.Duration
	// Alloc, when non-nil, is the online allocator: every access the engine
	// performs on behalf of a request is Observed into it, and a background
	// rebalancer polls it every Rebalance (which must then be positive)
	// with the engine's access count and installs the targets it returns.
	Alloc *alloc.Allocator
	// Logf, when non-nil, receives operational log lines (accepts,
	// panics, drains). The server never logs on the request path.
	Logf func(format string, args ...interface{})

	// Tests narrow these; zero means the default. softInflight and
	// hardInflight are the shed and reject watermarks (shedInflight and 4×
	// that), readTimeout bounds the wait for a complete frame
	// (frameTimeout), and slowWrite one batch write (slowClientBound).
	softInflight, hardInflight int
	readTimeout                time.Duration
	slowWrite                  time.Duration
	// testHook, when non-nil, runs before each admitted request is
	// served; tests use it to inject handler panics and stalls.
	testHook func(req *Request)
}

// Serving constants. At or above shedInflight in-flight requests,
// best-effort tenants are shed and guaranteed reads go stale; at or above
// 4× that (1024), every request gets StatusOverload. frameTimeout bounds
// the wait for a complete frame (idle time and slow-loris partial frames
// both count).
const (
	shedInflight = 256
	frameTimeout = 60 * time.Second
)

func (c *Config) setDefaults() {
	if c.softInflight <= 0 {
		c.softInflight = shedInflight
	}
	if c.hardInflight <= 0 {
		c.hardInflight = 4 * c.softInflight
	}
	if c.readTimeout <= 0 {
		c.readTimeout = frameTimeout
	}
	if c.slowWrite <= 0 {
		c.slowWrite = slowClientBound
	}
}

// Server is the multi-tenant cache service. Start it with Serve (or
// ListenAndServe), stop it with Shutdown.
//
// The only nested locking is the stats snapshot holding mu while cloning
// each live connection's histogram under its hmu.
//
//fs:lockorder Server.mu conn.hmu
type Server struct {
	cfg    Config
	engine *shardcache.Engine
	store  *store
	adm    *admission
	// start is the origin of the token buckets' nanosecond clock.
	start time.Time

	ln       net.Listener
	draining atomic.Bool

	connWG sync.WaitGroup // one per live connection
	loopWG sync.WaitGroup // accept loop
	// rb polls Alloc and installs its targets (nil without Alloc); stats
	// read its counters.
	rb *shardcache.Rebalancer

	mu sync.Mutex
	//fs:guardedby mu
	conns map[*conn]struct{}
	// closedHist accumulates the latency histograms of closed
	// connections; live connections merge in at snapshot time. Per-conn
	// histograms exist exactly so the request path never takes this lock.
	//fs:guardedby mu
	closedHist *stats.Histogram

	accepted    atomic.Uint64
	panics      atomic.Uint64
	badFrames   atomic.Uint64
	slowClients atomic.Uint64
	forcedConns atomic.Uint64
}

// conn is one client connection, served by one goroutine: it parses
// frames, serves them in runs (batch.go) and writes their batched responses
// itself.
type conn struct {
	srv *Server
	nc  net.Conn
	// br buffers nc for the reader; buffered bytes are what make pipelined
	// runs visible (see batch.go) and what tell the reader it is about to
	// block. Owned by the connection's goroutine, like run, out and outN.
	br *bufio.Reader
	// run is the request path's scratch.
	run *run
	// out holds the outN responses encoded since the last flush.
	out  []byte
	outN int

	hmu sync.Mutex
	//fs:guardedby hmu
	hist *stats.Histogram
}

// New validates cfg, builds the engine, store and admission state, and
// returns an unstarted server.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("server: no tenants configured")
	}
	if cfg.Cache.Parts != len(cfg.Tenants) {
		return nil, fmt.Errorf("server: Cache.Parts (%d) must equal tenant count (%d)",
			cfg.Cache.Parts, len(cfg.Tenants))
	}
	if len(cfg.Tenants) > 256 {
		return nil, errors.New("server: at most 256 tenants (tenant id is one wire byte)")
	}
	if err := cfg.Cache.Validate(); err != nil {
		return nil, fmt.Errorf("server: Cache: %w", err)
	}
	if cfg.Alloc != nil && cfg.Rebalance <= 0 {
		return nil, errors.New("server: Alloc needs a positive Rebalance to poll it at")
	}
	if cfg.Targets != nil {
		sum, neg := 0, false
		for _, t := range cfg.Targets {
			sum += t
			neg = neg || t < 0
		}
		if neg || sum != cfg.Cache.Lines || len(cfg.Targets) != len(cfg.Tenants) {
			return nil, fmt.Errorf("server: Targets %v, want %d non-negative entries summing to Cache.Lines (%d)",
				cfg.Targets, len(cfg.Tenants), cfg.Cache.Lines)
		}
	}
	engine := shardcache.New(cfg.Cache)
	targets := cfg.Targets
	if targets == nil {
		targets = make([]int, len(cfg.Tenants))
		alloc.EvenSplit(targets, cfg.Cache.Lines)
	}
	engine.SetTargets(targets)
	s := &Server{
		cfg:        cfg,
		engine:     engine,
		store:      newStore(engine),
		adm:        newAdmission(cfg.Tenants, cfg.softInflight, cfg.hardInflight),
		start:      time.Now(),
		conns:      map[*conn]struct{}{},
		closedHist: stats.NewHistogram(latBuckets),
	}
	return s, nil
}

// ListenAndServe binds cfg.Addr and starts serving. It returns once the
// listener is bound; the accept loop runs in the background until
// Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.Serve(ln)
	return nil
}

// Serve starts serving on ln (which the server takes ownership of). It
// returns immediately; use Shutdown to stop.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	// Set before the accept loop starts: a connection's stats read it.
	if s.cfg.Alloc != nil {
		s.rb = s.engine.StartRebalancerSource(s.cfg.Rebalance, s.cfg.Alloc)
	}
	s.loopWG.Add(1)
	go s.acceptLoop()
	s.logf("server: listening on %s (%d tenants, soft=%d hard=%d)",
		ln.Addr(), len(s.cfg.Tenants), s.cfg.softInflight, s.cfg.hardInflight)
}

// Addr returns the bound listen address (nil before Serve).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Engine exposes the backing engine (stats paths and tests).
func (s *Server) Engine() *shardcache.Engine { return s.engine }

// rebalanceCount reads the rebalancer's poll counter (0 without Alloc).
func (s *Server) rebalanceCount() uint64 {
	if s.rb == nil {
		return 0
	}
	return s.rb.Rebalances()
}

// installCount reads the rebalancer's install counter (0 without Alloc).
func (s *Server) installCount() uint64 {
	if s.rb == nil {
		return 0
	}
	return s.rb.Installs()
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.loopWG.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			// Listener closed (shutdown) or fatal accept error; either
			// way the loop is done — fault-injected per-conn failures
			// surface on the conn, not the listener.
			return
		}
		if s.draining.Load() {
			_ = nc.Close()
			continue
		}
		c := &conn{
			srv:  s,
			nc:   nc,
			br:   bufio.NewReaderSize(nc, 1<<14),
			run:  newRun(s.engine),
			hist: stats.NewHistogram(latBuckets),
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		// Counted once registered: accepted == n means n connections are,
		// or have been, in conns.
		s.accepted.Add(1)
		s.connWG.Add(1)
		go c.readLoop()
	}
}

// removeConn unregisters c and folds its histogram into the closed-conn
// accumulator.
func (s *Server) removeConn(c *conn) {
	c.hmu.Lock()
	h := c.hist
	c.hist = nil
	c.hmu.Unlock()
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		if h != nil {
			s.closedHist.Merge(h)
		}
	}
	s.mu.Unlock()
}

// Response batching. The reader flushes out when it is about to block on
// the socket, so an unpipelined client is answered at once; outMaxBytes and
// outMaxResps keep a head response from waiting behind an unbounded burst.
// A buffer that grew past bufKeep for one large value is dropped instead of
// reused. A client that does not take a flush within slowClientBound is
// slow and is dropped.
const (
	outMaxBytes     = 32 << 10
	outMaxResps     = 64
	bufKeep         = 64 << 10
	slowClientBound = time.Second
)

// readLoop reads frames, serves each with the buffered frames behind it as
// one run (handleRun) and flushes their responses before it blocks. Any
// panic while serving is contained to this connection: it is counted,
// logged, and the connection dies, while the server and every other
// connection keep going. The connection stays registered until this
// returns, so a drain that times out can force-close a write blocked on a
// client that stopped reading.
func (c *conn) readLoop() {
	defer func() {
		if r := recover(); r != nil {
			// Logged before counted: whoever observes the count may read
			// what Logf wrote.
			c.srv.logf("server: panic on %s (connection dropped): %v", c.nc.RemoteAddr(), r)
			c.srv.panics.Add(1)
		}
		// What is encoded still goes out: StatusDraining, and the replies
		// ahead of a panicking request.
		c.flush()
		_ = c.nc.Close()
		c.srv.removeConn(c)
		c.srv.connWG.Done()
	}()
	var frame []byte
	for {
		if whole, _ := c.nextBuffered(); !whole {
			// About to block. The deadline is armed before draining is
			// read so that Shutdown's wake-up (flag, then an expired
			// deadline) cannot be overwritten unseen.
			if !c.flush() {
				return
			}
			_ = c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.readTimeout))
		}
		if c.srv.draining.Load() {
			return
		}
		var err error
		frame, err = ReadFrame(c.br, frame)
		if err != nil {
			// Only framing damage counts as a bad frame; clean EOFs,
			// closed sockets and read-deadline expiries (idle clients,
			// slow-loris partial frames, drain wakeups) are connection
			// lifecycle, not protocol corruption.
			if errors.Is(err, ErrFrameTooBig) || errors.Is(err, io.ErrUnexpectedEOF) {
				c.srv.badFrames.Add(1)
			}
			return
		}
		req := c.parse(frame)
		if c.srv.draining.Load() {
			_ = c.send(&Response{Status: StatusDraining, Tenant: req.Tenant, Seq: req.Seq})
			return
		}
		if !c.handleRun(&req) {
			return
		}
	}
}

// send encodes resp onto the pending batch, flushing when the batch is
// full. It returns false when the connection must drop.
func (c *conn) send(resp *Response) bool {
	c.out = AppendResponse(c.out, resp)
	c.outN++
	c.srv.adm.inflight.Add(1)
	if len(c.out) < outMaxBytes && c.outN < outMaxResps {
		return true
	}
	return c.flush()
}

// flush writes the pending batch in one socket write. It returns false when
// the connection must drop: the write failed, or the client took longer
// than cfg.slowWrite to accept it.
func (c *conn) flush() bool {
	if c.outN == 0 {
		return true
	}
	s := c.srv
	_ = c.nc.SetWriteDeadline(time.Now().Add(s.cfg.slowWrite))
	_, err := c.nc.Write(c.out)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// Logged before counted, and both before the batch leaves
		// inflight: whoever observes the count may read what Logf wrote.
		s.logf("server: slow client %s (write blocked for %v), dropping",
			c.nc.RemoteAddr(), s.cfg.slowWrite)
		s.slowClients.Add(1)
	}
	s.adm.inflight.Add(int64(-c.outN))
	c.out, c.outN = c.out[:0], 0
	if cap(c.out) > bufKeep {
		c.out = nil
	}
	return err == nil
}

// expired reports whether req's wire deadline passed within elapsed.
func expired(req *Request, elapsed time.Duration) bool {
	return req.DeadlineUS > 0 && elapsed >= time.Duration(req.DeadlineUS)*time.Microsecond
}

// record adds n samples of lat to the connection's latency histogram.
func (c *conn) record(lat time.Duration, n int) {
	sample := float64(lat) / float64(latCap)
	c.hmu.Lock()
	if c.hist != nil {
		for i := 0; i < n; i++ {
			c.hist.Add(sample)
		}
	}
	c.hmu.Unlock()
}

// Shutdown drains the server: stop accepting, let in-flight requests
// finish and their responses flush, then force-close stragglers when the
// timeout expires. It returns nil on a clean drain and an error when
// connections had to be force-closed.
func (s *Server) Shutdown(timeout time.Duration) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("server: already shut down")
	}
	s.logf("server: draining (timeout %v)", timeout)
	_ = s.ln.Close()
	if s.rb != nil {
		s.rb.Stop()
	}

	// Readers blocked waiting for a frame wake immediately instead of
	// waiting out the frame timeout: expire their read deadlines. Readers
	// mid-handler are untouched and finish normally.
	now := time.Now()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.nc.SetReadDeadline(now)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			_ = c.nc.Close()
		}
		s.mu.Unlock()
		s.forcedConns.Add(uint64(n))
		forced = fmt.Errorf("server: drain timeout, force-closed %d connection(s)", n)
		<-done
	}
	s.loopWG.Wait()
	if forced == nil {
		s.logf("server: drained cleanly")
	} else {
		s.logf("%v", forced)
	}
	return forced
}

// TenantStats is the per-tenant slice of a stats snapshot.
type TenantStats struct {
	Class         string  `json:"class"`
	Target        int     `json:"target"`
	Size          int     `json:"size"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	MissRate      float64 `json:"miss_rate"`
	Admitted      uint64  `json:"admitted"`
	Shed          uint64  `json:"shed"`
	StaleServes   uint64  `json:"stale_serves"`
	Rejected      uint64  `json:"rejected"`
	Deadlined     uint64  `json:"deadlined"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
}

// LatencyStats summarizes the merged per-connection handler-latency
// histograms.
type LatencyStats struct {
	N     uint64  `json:"n"`
	P50us float64 `json:"p50_us"`
	P90us float64 `json:"p90_us"`
	P99us float64 `json:"p99_us"`
}

// StatsSnapshot is the OpStats JSON payload. Rebalances counts the
// rebalancer's polls of Config.Alloc and TargetInstalls the target vectors
// it installed; both stay 0 without Alloc.
type StatsSnapshot struct {
	Accepted       uint64        `json:"accepted"`
	LiveConns      int           `json:"live_conns"`
	Inflight       int64         `json:"inflight"`
	Panics         uint64        `json:"panics"`
	BadFrames      uint64        `json:"bad_frames"`
	SlowClients    uint64        `json:"slow_clients"`
	ForcedConns    uint64        `json:"forced_conns"`
	Rebalances     uint64        `json:"rebalances"`
	TargetInstalls uint64        `json:"target_installs"`
	Draining       bool          `json:"draining"`
	StoreEntries   int           `json:"store_entries"`
	StoreBytes     int64         `json:"store_bytes"`
	Accesses       uint64        `json:"engine_accesses"`
	Tenants        []TenantStats `json:"tenants"`
	Latency        LatencyStats  `json:"latency"`
}

// Stats assembles a consistent-enough snapshot: counters are atomics, the
// engine is read once, as one snapshot merged stripe by stripe, and live
// connections' histograms are cloned under their own locks and merged
// outside the hot path.
func (s *Server) Stats() StatsSnapshot {
	snap := s.engine.Snapshot()
	entries, bytes := s.store.Stats()

	hist := stats.NewHistogram(latBuckets)
	s.mu.Lock()
	live := len(s.conns)
	hist.Merge(s.closedHist)
	for c := range s.conns {
		c.hmu.Lock()
		if c.hist != nil {
			hist.Merge(c.hist)
		}
		c.hmu.Unlock()
	}
	s.mu.Unlock()

	out := StatsSnapshot{
		Accepted:       s.accepted.Load(),
		LiveConns:      live,
		Inflight:       s.adm.inflight.Load(),
		Panics:         s.panics.Load(),
		BadFrames:      s.badFrames.Load(),
		SlowClients:    s.slowClients.Load(),
		ForcedConns:    s.forcedConns.Load(),
		Rebalances:     s.rebalanceCount(),
		TargetInstalls: s.installCount(),
		Draining:       s.draining.Load(),
		StoreEntries:   entries,
		StoreBytes:     bytes,
		Accesses:       snap.Accesses,
		Tenants:        make([]TenantStats, len(s.adm.tenants)),
		Latency: LatencyStats{
			N:     hist.N(),
			P50us: hist.Quantile(0.5) * float64(latCap) / 1e3,
			P90us: hist.Quantile(0.9) * float64(latCap) / 1e3,
			P99us: hist.Quantile(0.99) * float64(latCap) / 1e3,
		},
	}
	for i, t := range s.adm.tenants {
		ps := &snap.Parts[i]
		out.Tenants[i] = TenantStats{
			Class:         t.cfg.Class.String(),
			Target:        ps.Target,
			Size:          ps.Size,
			MeanOccupancy: ps.MeanOccupancy,
			MissRate:      ps.MissRate(),
			Admitted:      t.admitted.Load(),
			Shed:          t.shed.Load(),
			StaleServes:   t.staleServe.Load(),
			Rejected:      t.rejected.Load(),
			Deadlined:     t.deadlined.Load(),
			Hits:          t.hits.Load(),
			Misses:        t.misses.Load(),
		}
	}
	return out
}
