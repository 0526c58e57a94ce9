package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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

// Config assembles a Server. The zero values of the tuning knobs are
// replaced by the defaults documented on each field.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
	// Tenants configures each tenant; tenant i maps to FS partition i.
	// len(Tenants) must equal Cache.Parts.
	Tenants []TenantConfig
	// Cache configures the backing shardcache engine.
	Cache shardcache.Config
	// Targets are the cache-wide per-partition line targets. When nil the
	// capacity is split evenly across tenants.
	Targets []int
	// SoftInflight is the shed watermark: at or above this many in-flight
	// requests, best-effort tenants are shed and guaranteed reads go
	// stale. Default 256.
	SoftInflight int
	// HardInflight is the reject watermark: at or above it, every request
	// gets StatusOverload. Default 4×SoftInflight.
	HardInflight int
	// WriteQueue bounds each connection's queued response batches (one
	// batch is one socket write of up to outMaxResps responses); a full
	// queue is backpressure from a slow client. Default 64.
	WriteQueue int
	// EnqueueTimeout is how long a handler blocks on a full write queue
	// before declaring the client slow and dropping the connection.
	// Default 1s.
	EnqueueTimeout time.Duration
	// ReadTimeout bounds how long the server waits for a complete frame
	// (idle time and slow-loris partial frames both count). Default 60s.
	ReadTimeout time.Duration
	// Rebalance is the engine target-redistribution cadence; 0 disables
	// the background rebalancer.
	Rebalance time.Duration
	// TargetSource, when non-nil, drives the rebalancer's target vector:
	// each tick polls it and installs fresh targets before redistributing
	// (the online allocator in internal/alloc implements it). Requires
	// Rebalance > 0 to have any effect.
	TargetSource shardcache.TargetSource
	// Observe, when non-nil, is called with (partition, address) for every
	// access the engine performs on behalf of a request — the feed for an
	// online allocator. It must be safe for concurrent use and cheap: it
	// runs on the request path.
	Observe func(part int, addr uint64)
	// StoreShards is the byte store's lock-shard count (power of two).
	// Default 16.
	StoreShards int
	// Logf, when non-nil, receives operational log lines (accepts,
	// panics, drains). The server never logs on the request path.
	Logf func(format string, args ...interface{})

	// testHook, when non-nil, runs before each admitted request is
	// executed; tests use it to inject handler panics.
	testHook func(req *Request)
}

func (c *Config) setDefaults() {
	if c.SoftInflight <= 0 {
		c.SoftInflight = 256
	}
	if c.HardInflight <= 0 {
		c.HardInflight = 4 * c.SoftInflight
	}
	if c.WriteQueue <= 0 {
		c.WriteQueue = 64
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 60 * time.Second
	}
	if c.StoreShards <= 0 {
		c.StoreShards = 16
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
	clock  *coarseClock

	ln       net.Listener
	draining atomic.Bool

	connWG sync.WaitGroup // one per live connection
	loopWG sync.WaitGroup // accept loop
	stopCh chan struct{}
	// rb is the engine's background target distributor (nil when the
	// cadence is disabled); stats read its pass counter.
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

// conn is one client connection: a reader goroutine that parses frames,
// runs handlers synchronously and batches their responses, and a writer
// goroutine draining the bounded batch queue, one socket write per batch.
// The reader is the only producer on writeQ, so closing it after the last
// enqueue is race-free.
type conn struct {
	srv *Server
	nc  net.Conn
	// br buffers nc for the reader; buffered bytes are what make pipelined
	// GET runs visible (see batch.go) and what tell the reader it is about
	// to block. Reader-goroutine-owned, like gb, req, out and outN.
	br *bufio.Reader
	// gb is the pipelined-GET batching scratch, allocated on first use.
	gb *getBatch
	// req is the request being handled; one per connection because its
	// address reaches cfg.testHook, which would move a local to the heap.
	req Request
	// out holds the outN responses encoded since the last flush.
	out  []byte
	outN int

	writeQ chan outBatch
	// free returns written buffers from the writer to the reader.
	free    chan []byte
	pending atomic.Int64 // responses sent but not yet written

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
	if cfg.Targets != nil && len(cfg.Targets) != len(cfg.Tenants) {
		return nil, fmt.Errorf("server: Targets length %d != tenant count %d",
			len(cfg.Targets), len(cfg.Tenants))
	}
	if cfg.HardInflight < cfg.SoftInflight {
		return nil, errors.New("server: HardInflight below SoftInflight")
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
		store:      newStore(cfg.StoreShards),
		adm:        newAdmission(cfg.Tenants, cfg.SoftInflight, cfg.HardInflight),
		stopCh:     make(chan struct{}),
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
	s.clock = newCoarseClock()
	s.loopWG.Add(1)
	go s.acceptLoop()
	if s.cfg.Rebalance > 0 {
		s.rb = s.engine.StartRebalancerSource(s.cfg.Rebalance, s.cfg.TargetSource)
	}
	s.logf("server: listening on %s (%d tenants, soft=%d hard=%d)",
		ln.Addr(), len(s.cfg.Tenants), s.cfg.SoftInflight, s.cfg.HardInflight)
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

// rebalanceCount reads the background distributor's pass counter (0 when
// the cadence is disabled).
func (s *Server) rebalanceCount() uint64 {
	if s.rb == nil {
		return 0
	}
	return s.rb.Rebalances()
}

// installCount reads the rebalancer's source-install counter (0 when the
// cadence is disabled or no TargetSource is configured).
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
			srv:    s,
			nc:     nc,
			br:     bufio.NewReaderSize(nc, 1<<14),
			writeQ: make(chan outBatch, s.cfg.WriteQueue),
			free:   make(chan []byte, freeRing),
			hist:   stats.NewHistogram(latBuckets),
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		// Counted once registered: accepted == n means n connections are,
		// or have been, in conns.
		s.accepted.Add(1)
		s.connWG.Add(2)
		go c.readLoop()
		go c.writeLoop()
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
// freeRing sizes the writer-to-reader buffer ring, and a buffer that grew
// past bufKeep for one large value is dropped instead of recycled.
// writeTimeout bounds one batch write.
const (
	outMaxBytes  = 32 << 10
	outMaxResps  = 64
	freeRing     = 4
	bufKeep      = 64 << 10
	writeTimeout = 10 * time.Second
)

// outBatch is one queue item and one socket write: n encoded responses.
type outBatch struct {
	buf []byte
	n   int
}

// readLoop parses frames, runs handlers synchronously and flushes their
// responses before it blocks. Any panic in a handler is contained to this
// connection: it is counted, logged, and the connection dies, while the
// server and every other connection keep going.
func (c *conn) readLoop() {
	defer c.srv.connWG.Done()
	defer func() {
		if r := recover(); r != nil {
			// Logged before counted: whoever observes the count may read
			// what Logf wrote.
			c.srv.logf("server: panic on %s (connection dropped): %v", c.nc.RemoteAddr(), r)
			c.srv.panics.Add(1)
		}
		// Reader is the sole producer: once it has flushed and returns,
		// closing writeQ lets the writer write what is queued and exit.
		c.flush()
		close(c.writeQ)
		c.srv.removeConn(c)
	}()
	var frame []byte
	req := &c.req
	for {
		if whole, _ := c.nextBuffered(); !whole {
			// About to block. The deadline is armed before draining is
			// read so that Shutdown's wake-up (flag, then an expired
			// deadline) cannot be overwritten unseen.
			if !c.flush() {
				return
			}
			_ = c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout))
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
		*req, err = ParseRequest(frame)
		if err != nil {
			// The frame boundary was intact (length prefix consumed the
			// right bytes), so the stream is still framed: answer
			// bad-request and keep the connection.
			c.srv.badFrames.Add(1)
			if !c.send(&Response{Status: StatusBadRequest, Seq: req.Seq}) {
				return
			}
			continue
		}
		if c.srv.draining.Load() {
			_ = c.send(&Response{Status: StatusDraining, Tenant: req.Tenant, Seq: req.Seq})
			return
		}
		if req.Op == OpGet {
			// GETs take the batched path: this request plus any pipelined
			// GET frames already buffered become one engine submission.
			if !c.handleGetRun(req) {
				return
			}
			continue
		}
		resp, ok := c.handle(req)
		if !c.send(&resp) || !ok {
			return
		}
	}
}

// send encodes resp onto the pending batch, flushing when the batch is
// full. It returns false when the connection must drop (slow client).
func (c *conn) send(resp *Response) bool {
	c.out = AppendResponse(c.out, resp)
	c.outN++
	c.srv.adm.inflight.Add(1)
	c.pending.Add(1)
	if len(c.out) < outMaxBytes && c.outN < outMaxResps {
		return true
	}
	return c.flush()
}

// flush hands the pending batch to the writer with bounded backpressure
// and takes a recycled buffer for the next one. It returns false when the
// connection must drop (slow client).
func (c *conn) flush() bool {
	if c.outN == 0 {
		return true
	}
	b := outBatch{c.out, c.outN}
	c.out, c.outN = nil, 0
	select {
	case c.out = <-c.free:
	default:
	}
	select {
	case c.writeQ <- b:
		return true
	default:
	}
	// Queue full: the client is not draining responses. Give it one
	// bounded grace period, then declare it slow and drop the connection
	// (its queued responses still flush).
	t := time.NewTimer(c.srv.cfg.EnqueueTimeout)
	defer t.Stop()
	select {
	case c.writeQ <- b:
		return true
	case <-t.C:
		c.srv.adm.inflight.Add(int64(-b.n))
		c.pending.Add(int64(-b.n))
		c.srv.slowClients.Add(1)
		c.srv.logf("server: slow client %s (write queue full for %v), dropping",
			c.nc.RemoteAddr(), c.srv.cfg.EnqueueTimeout)
		return false
	}
}

// writeLoop drains the batch queue. After a write error it keeps draining
// so in-flight accounting still reaches zero, it just stops touching the
// dead socket.
func (c *conn) writeLoop() {
	defer c.srv.connWG.Done()
	defer func() { _ = c.nc.Close() }()
	dead := false
	for b := range c.writeQ {
		if !dead {
			_ = c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := c.nc.Write(b.buf); err != nil {
				dead = true
			}
		}
		c.srv.adm.inflight.Add(int64(-b.n))
		c.pending.Add(int64(-b.n))
		if cap(b.buf) <= bufKeep {
			select {
			case c.free <- b.buf[:0]:
			default:
			}
		}
	}
}

// handle executes one parsed request and returns the response. ok=false
// additionally tears the connection down after the response is sent
// (internal handler failure).
func (c *conn) handle(req *Request) (resp Response, ok bool) {
	s := c.srv
	resp = Response{Status: StatusOK, Tenant: req.Tenant, Seq: req.Seq}
	ok = true

	// Ping and stats bypass admission: they are the liveness and
	// observability path and must answer precisely when the data path is
	// degraded.
	switch req.Op {
	case OpPing:
		return resp, true
	case OpStats:
		body, err := json.Marshal(s.Stats())
		if err != nil {
			resp.Status = StatusError
			return resp, false
		}
		resp.Value = body
		return resp, true
	}

	if int(req.Tenant) >= len(s.adm.tenants) || len(req.Key) == 0 {
		resp.Status = StatusBadRequest
		return resp, true
	}
	t := s.adm.tenants[req.Tenant]

	// The expiry is computed against a synced coarse clock once; the hot
	// path below re-checks with plain atomic loads.
	now := s.clock.Sync()
	var expiry int64
	if req.DeadlineUS > 0 {
		expiry = now + int64(req.DeadlineUS)*1000
	}
	start := time.Now()
	defer func() {
		lat := time.Since(start)
		c.hmu.Lock()
		if c.hist != nil {
			c.hist.Add(float64(lat) / float64(latCap))
		}
		c.hmu.Unlock()
	}()

	switch s.adm.decide(t, req.Op, now) {
	case vReject:
		resp.Status = StatusOverload
		return resp, true
	case vShed:
		resp.Status = StatusShed
		return resp, true
	}

	if s.cfg.testHook != nil {
		s.cfg.testHook(req)
	}
	if expiry != 0 && s.clock.Now() >= expiry {
		t.deadlined.Add(1)
		resp.Status = StatusDeadline
		return resp, true
	}

	addr := hashKey(req.Key)
	part := int(req.Tenant)
	switch req.Op {
	case OpSet:
		res := s.engine.Access(addr, part)
		if s.cfg.Observe != nil {
			s.cfg.Observe(part, addr)
		}
		var spare []byte
		if res.Evicted {
			spare = s.store.Evict(res.EvictedAddr)
		}
		s.store.Put(addr, req.Key, req.Value, spare)
	case OpDel:
		// Bytes go now; the simulated line carries no value and ages out
		// under its partition's normal replacement pressure.
		if !s.store.Delete(addr) {
			resp.Status = StatusNotFound
		}
	default:
		resp.Status = StatusBadRequest
		return resp, true
	}

	if expiry != 0 && s.clock.Now() >= expiry {
		// The work is done but the client's deadline passed while we did
		// it; tell the truth so the client does not double-count a slow
		// success as fresh.
		t.deadlined.Add(1)
		resp.Status = StatusDeadline
	}
	return resp, true
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
	close(s.stopCh)
	if s.rb != nil {
		s.rb.Stop()
	}

	// Readers blocked waiting for a frame wake immediately instead of
	// waiting out ReadTimeout: expire their read deadlines. Readers
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
	s.clock.Close()
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

// StatsSnapshot is the OpStats JSON payload.
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
// engine snapshot is taken shard by shard, and live connections'
// histograms are cloned under their own locks and merged outside the hot
// path.
func (s *Server) Stats() StatsSnapshot {
	snap := s.engine.Snapshot()
	targets := s.engine.Targets()
	sizes := s.engine.PartSizes(nil)
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
		out.Tenants[i] = TenantStats{
			Class:         t.cfg.Class.String(),
			Target:        targets[i],
			Size:          sizes[i],
			MeanOccupancy: s.engine.MeanOccupancy(i),
			MissRate:      snap.Parts[i].MissRate(),
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
