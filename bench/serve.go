package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/server"
	"fscache/internal/shardcache"
)

// The three serve-* workloads: an in-process server.Server on loopback
// driven by K closed-loop client connections, each replaying its own
// pre-generated script.

// serveSpec is what distinguishes the serve-* workloads.
type serveSpec struct {
	keysPerLine float64 // key space per tenant as a multiple of the line count
	valLen      int
	depth       int     // requests per write
	setFrac     float64 // blind overwrites in the script
	cacheAside  bool    // a GET that misses is followed by a SET of that key
}

var (
	serveGetHot       = &serveSpec{keysPerLine: 0.25, valLen: 64, depth: 1}
	serveSetChurn     = &serveSpec{keysPerLine: 4, valLen: 1024, depth: 1, setFrac: 0.2, cacheAside: true}
	servePipelinedGet = &serveSpec{keysPerLine: 0.25, valLen: 64, depth: 16}
)

const (
	serveLines   = 16384
	serveTenants = 2
	scriptLen    = 1 << 18
	primeDepth   = 32
	rpcTimeout   = 2 * time.Second
)

func engineConfig(parts int) shardcache.Config {
	return shardcache.Config{
		Lines: serveLines, Ways: 16, Shards: 4, Stripes: 4, Parts: parts,
		Ranking: futility.CoarseLRU, Seed: systemSeed,
	}
}

func newServer() (*server.Server, error) {
	srv, err := server.New(server.Config{
		Addr:      "127.0.0.1:0",
		Tenants:   []server.TenantConfig{{Class: server.Guaranteed}, {Class: server.BestEffort}},
		Cache:     engineConfig(serveTenants),
		Rebalance: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.ListenAndServe(); err != nil {
		return nil, err
	}
	return srv, nil
}

// client is one closed-loop connection. It allocates nothing per request:
// frames, the value and the latency log are reused or preallocated.
type client struct {
	spec    *serveSpec
	nc      net.Conn
	br      *bufio.Reader
	frame   []byte
	payload []byte
	key     [keyLen]byte
	val     []byte
	version uint32
	seq     uint32
	misses  []serveOp // cache-aside follow-ups of the current round trip
	tb      *spanBuf
	trips   uint64
	last    time.Time // when the latest round trip completed

	ops, gets, hits, failed uint64
	err                     error

	// Latency log of the timed section: one entry per round trip, plus the
	// log length and operation count at each window boundary.
	rtt     []uint32
	winAt   []int
	winOps  []uint64
	winEnd  time.Time
	window  time.Duration
	logging bool
}

func dialClient(addr string, spec *serveSpec, seed uint64, id int) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{spec: spec, nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	c.val = append(make([]byte, valHeader), genValueBody(seed^uint64(id+1)<<48, spec.valLen-valHeader)...)
	c.misses = make([]serveOp, 0, max(spec.depth, primeDepth))
	return c, nil
}

// roundTrip sends batch as one write — SETs where the script or forceSet
// says so, GETs otherwise — reads and checks every reply, and reports
// whether the connection is still usable.
func (c *client) roundTrip(batch []serveOp, forceSet bool) bool {
	sampled := c.tb != nil && c.trips&(traceEvery-1) == 0
	c.trips++
	var root, sp int32
	if sampled {
		root = c.tb.begin("rpc", -1, c.trips)
		sp = c.tb.begin("client.append_request", root, c.trips)
	}
	c.frame = c.frame[:0]
	first := c.seq
	for _, op := range batch {
		putKey(c.key[:], op.Tenant, op.Key)
		req := server.Request{Op: server.OpGet, Tenant: op.Tenant, Seq: c.seq, Key: c.key[:]}
		if op.Set || forceSet {
			c.version++
			stampValue(c.val, op.Tenant, op.Key, c.version)
			req.Op, req.Value = server.OpSet, c.val
		}
		c.seq++
		c.frame = server.AppendRequest(c.frame, &req)
	}
	if sampled {
		c.tb.end(sp)
	}

	start := time.Now()
	if _, err := c.nc.Write(c.frame); err != nil {
		return c.fail(len(batch), err)
	}
	c.misses = c.misses[:0]
	for i, op := range batch {
		var err error
		if c.payload, err = server.ReadFrame(c.br, c.payload); err != nil {
			return c.fail(len(batch)-i, err)
		}
		if sampled {
			sp = c.tb.begin("client.parse_response", root, c.trips)
		}
		resp, err := server.ParseResponse(c.payload)
		if sampled {
			c.tb.end(sp)
			sp = c.tb.begin("client.verify", root, c.trips)
		}
		c.ops++
		isSet := op.Set || forceSet
		switch {
		case err != nil || resp.Seq != first+uint32(i):
			c.failed++
		case isSet:
			if resp.Status != server.StatusOK {
				c.failed++
			}
		case resp.Status == server.StatusOK:
			c.gets++
			c.hits++
			if !checkValue(resp.Value, op.Tenant, op.Key, c.spec.valLen) {
				c.failed++
			}
		case resp.Status == server.StatusNotFound:
			c.gets++
			if c.spec.cacheAside {
				c.misses = append(c.misses, op)
			}
		default:
			c.gets++
			c.failed++
		}
		if sampled {
			c.tb.end(sp)
		}
	}
	end := time.Now()
	c.last = end
	if sampled {
		c.tb.end(root)
	}
	rtt := end.Sub(start)
	if rtt > rpcTimeout {
		c.failed++
	}
	if c.logging {
		for !end.Before(c.winEnd) {
			c.winAt = append(c.winAt, len(c.rtt))
			c.winOps = append(c.winOps, c.ops-uint64(len(batch)))
			c.winEnd = c.winEnd.Add(c.window)
			// One deadline per window instead of one per request keeps
			// timer churn out of the generator; any reply is still at most
			// rpcTimeout plus a window late before the read fails.
			_ = c.nc.SetDeadline(end.Add(rpcTimeout + c.window))
		}
		c.rtt = append(c.rtt, uint32(min(rtt, time.Duration(1<<32-1))))
	}
	return true
}

// fail counts n operations lost to a transport error and retires the
// connection.
func (c *client) fail(n int, err error) bool {
	c.ops += uint64(n)
	c.failed += uint64(n)
	c.err = err
	return false
}

// drive replays script from pos in batches of the spec's depth until
// deadline (or, with a zero deadline, for n operations), issuing the
// cache-aside SETs a batch's misses call for. It returns the new position.
func (c *client) drive(script []serveOp, pos int, deadline time.Time, n int) int {
	depth := c.spec.depth
	for done := 0; ; done += depth {
		if deadline.IsZero() {
			if done >= n {
				return pos
			}
		} else if !c.last.Before(deadline) {
			return pos
		}
		if pos+depth > len(script) {
			pos = 0
		}
		if !c.roundTrip(script[pos:pos+depth], false) {
			return pos
		}
		pos += depth
		if len(c.misses) > 0 {
			// The SET pass truncates c.misses but appends nothing to it, so
			// the batch it is reading is not overwritten underneath it.
			if !c.roundTrip(c.misses, true) {
				return pos
			}
		}
	}
}

// prime pipelines blind SETs of ops so the cache holds them before timing.
func (c *client) prime(ops []serveOp) bool {
	for len(ops) > 0 {
		n := min(primeDepth, len(ops))
		if !c.roundTrip(ops[:n], true) {
			return false
		}
		ops = ops[n:]
	}
	return true
}

// prepLog sizes the latency log for a timed section of dur, so that the
// section itself appends without allocating.
func (c *client) prepLog(dur, window time.Duration) {
	c.rtt = make([]uint32, 0, int(dur.Seconds()*400_000)+1024)
	c.winAt = append(make([]int, 0, int(dur/window)+8), 0)
	c.winOps = append(make([]uint64, 0, cap(c.winAt)), 0)
	c.window = window
	c.ops, c.gets, c.hits = 0, 0, 0
}

// startLog arms the latency log for a timed section starting at start.
func (c *client) startLog(start time.Time) {
	c.winEnd = start.Add(c.window)
	c.logging = true
	_ = c.nc.SetDeadline(start.Add(rpcTimeout + c.window))
}

// engineCounts is the part of an engine snapshot the trials diff.
type engineCounts struct {
	hits, misses, evictions, forced, demotions uint64
	futSum                                     float64
	futN                                       uint64
}

func countsOf(s core.Snapshot) engineCounts {
	var c engineCounts
	for i := range s.Parts {
		p := &s.Parts[i]
		c.hits += p.Hits
		c.misses += p.Misses
		c.evictions += p.Evictions
		c.forced += p.ForcedEvict
		c.demotions += p.Demotions
		c.futSum += p.EvictFutility.Sum()
		c.futN += p.EvictFutility.N()
	}
	return c
}

// record stores the counts gained since base as the core.* rows of t and
// sets t.aef: the mean reference futility of the lines evicted in between,
// or 1 — nothing useful was thrown away — when none was.
func (c engineCounts) record(base engineCounts, t *trial) {
	t.layer["core.hits"] = float64(c.hits - base.hits)
	t.layer["core.misses"] = float64(c.misses - base.misses)
	t.layer["core.evictions"] = float64(c.evictions - base.evictions)
	t.layer["core.forced_evictions"] = float64(c.forced - base.forced)
	t.layer["core.demotions"] = float64(c.demotions - base.demotions)
	t.aef = 1
	if n := c.futN - base.futN; n > 0 {
		t.aef = (c.futSum - base.futSum) / float64(n)
	}
}

// occSampler accumulates (size, target) pairs per partition; err is the
// largest relative distance between a partition's mean size and mean target.
type occSampler struct {
	size, target []float64
	buf          []int
}

func newOccSampler(parts int) *occSampler {
	return &occSampler{size: make([]float64, parts), target: make([]float64, parts), buf: make([]int, parts)}
}

func (o *occSampler) sample(e *shardcache.Engine) {
	o.buf = e.PartSizes(o.buf)
	tg := e.Targets()
	for p := range tg {
		o.size[p] += float64(o.buf[p])
		o.target[p] += float64(tg[p])
	}
}

func (o *occSampler) err() float64 {
	worst := 0.0
	for p := range o.size {
		if o.target[p] > 0 {
			d := (o.size[p] - o.target[p]) / o.target[p]
			worst = max(worst, d, -d)
		}
	}
	return worst
}

// checkEngine runs the checks every engine-backed trial ends with.
func checkEngine(t *trial, e *shardcache.Engine) {
	err := e.CheckInvariants()
	t.check(err == nil, "engine invariants: %v", err)
	sum := 0
	for _, x := range e.Targets() {
		sum += x
	}
	t.check(sum == e.Lines(), "targets sum to %d, want %d", sum, e.Lines())
}

func runServe(rc *runCtx, spec *serveSpec) *trial {
	sec := newSection(rc)
	t := sec.t
	keys := int(spec.keysPerLine * serveLines)
	scripts := make([][]serveOp, rc.k)
	for i := range scripts {
		scripts[i] = genServeOps(rc.seed, i, scriptLen, serveTenants, keys, 0.9, spec.setFrac)
	}
	sec.inputsReady()

	srv, err := newServer()
	if err != nil {
		t.check(false, "server: %v", err)
		return t
	}
	clients := make([]*client, rc.k)
	for i := range clients {
		if clients[i], err = dialClient(srv.Addr().String(), spec, rc.seed, i); err != nil {
			t.check(false, "dial: %v", err)
			_ = srv.Shutdown(time.Second)
			return t
		}
		if rc.tr != nil {
			clients[i].tb = rc.tr.buf()
		}
	}

	// Warm to steady state: every key of a resident key space, or — when
	// the key space exceeds the cache — a script-shaped population that
	// fills the cache the way the timed section will keep it.
	pos := make([]int, rc.k)
	var wg sync.WaitGroup
	for i, c := range clients {
		var warm []serveOp
		if spec.keysPerLine <= 0.5 {
			for id := i; id < keys; id += rc.k {
				for tn := range serveTenants {
					warm = append(warm, serveOp{Key: uint32(id), Tenant: uint8(tn)})
				}
			}
		} else {
			pos[i] = rc.scale(serveLines)
			warm = scripts[i][:pos[i]]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.prime(warm)
			// A short scripted run settles follow-up SETs and recency.
			pos[i] = c.drive(scripts[i], pos[i], time.Time{}, rc.scale(4096))
		}()
	}
	wg.Wait()
	for _, c := range clients {
		t.check(c.err == nil && c.failed == 0, "warm-up: %d failed, err %v", c.failed, c.err)
		c.failed = 0
	}
	eng := srv.Engine()
	base := countsOf(eng.Snapshot())

	window := min(250*time.Millisecond, rc.dur/2)
	for _, c := range clients {
		c.prepLog(rc.dur, window)
	}
	sec.begin()
	deadline := sec.startAt.Add(rc.dur)
	for i, c := range clients {
		c.startLog(sec.startAt)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.drive(scripts[i], pos[i], deadline, 0)
		}()
	}
	occ := newOccSampler(serveTenants)
	for time.Now().Before(deadline) {
		time.Sleep(window)
		occ.sample(eng)
	}
	wg.Wait()
	var ops uint64
	for _, c := range clients {
		ops += c.ops
	}
	sec.end(ops)
	runtime.KeepAlive(scripts) // part of the heap baseline until end has read the heap

	var gets, hits uint64
	for _, c := range clients {
		t.attempted += c.ops
		t.failed += c.failed
		if c.err != nil {
			t.problems = append(t.problems, fmt.Sprintf("client: %v", c.err))
		}
		gets += c.gets
		hits += c.hits
	}
	t.hitRatio = float64(hits) / float64(max(gets, 1))
	t.tripOps = spec.depth
	t.occErr = occ.err()
	countsOf(eng.Snapshot()).record(base, t)
	serveWindows(t, clients, window)

	st := srv.Stats()
	t.layer["server.handler_p50_us"] = st.Latency.P50us
	t.layer["server.handler_p99_us"] = st.Latency.P99us
	t.layer["server.store_entries"] = float64(st.StoreEntries)
	t.layer["server.store_bytes"] = float64(st.StoreBytes)
	t.layer["shardcache.rebalances"] = float64(st.Rebalances)
	t.layer["shardcache.target_installs"] = float64(st.TargetInstalls)
	for _, tn := range st.Tenants {
		t.layer["server.shed"] += float64(tn.Shed)
		t.layer["server.rejected"] += float64(tn.Rejected)
		t.layer["server.stale_serves"] += float64(tn.StaleServes)
		t.layer["server.deadlined"] += float64(tn.Deadlined)
	}
	t.check(st.StoreEntries <= serveLines, "store holds %d entries for %d lines", st.StoreEntries, serveLines)
	t.check(st.Panics == 0 && st.BadFrames == 0, "server saw %d panics, %d bad frames", st.Panics, st.BadFrames)
	checkEngine(t, eng)
	for _, c := range clients {
		_ = c.nc.Close()
	}
	err = srv.Shutdown(5 * time.Second)
	t.check(err == nil, "shutdown: %v", err)
	return t
}

// serveWindows turns the clients' latency logs into per-window samples:
// operations completed by all connections per second, and the median and
// 99th-percentile round trip of the window's pooled samples.
func serveWindows(t *trial, clients []*client, window time.Duration) {
	wins := len(clients[0].winAt) - 1
	for _, c := range clients {
		wins = min(wins, len(c.winAt)-1)
	}
	var pool []uint32
	for w := range wins {
		var ops uint64
		pool = pool[:0]
		for _, c := range clients {
			ops += c.winOps[w+1] - c.winOps[w]
			pool = append(pool, c.rtt[c.winAt[w]:c.winAt[w+1]]...)
		}
		if len(pool) == 0 {
			continue
		}
		slices.Sort(pool)
		t.rates = append(t.rates, float64(ops)/window.Seconds())
		t.p50s = append(t.p50s, float64(percentileSorted(pool, 0.5))/1e3)
		t.p99s = append(t.p99s, float64(percentileSorted(pool, 0.99))/1e3)
		t.latSamples += len(pool)
	}
}
