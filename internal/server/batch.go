package server

// The request path.
//
// Every frame a connection reads is served as part of a run: the frame the
// read loop waited for, plus the maximal run of frames behind it that are
// already fully buffered. A client that pipelines requests (every fsload net
// worker, any batching client) lands several complete frames in the
// connection's read buffer at once; an unpipelined client's runs hold one
// frame. handleRun serves a run in three passes and sends its responses
// strictly in request order:
//
//  1. Decide, in request order and without locks. Ping and Stats are
//     answered without admission: they are the liveness and observability
//     path and must answer precisely when the data path is degraded. A frame
//     that failed to parse, or that names no data op, no tenant or no key, is
//     BadRequest. Every other request, a GET, SET or DEL, walks the
//     admission ladder once.
//  2. Serve, through shardcache.Batch.Each: one stripe lock covers every
//     admitted or stale request of the run that routes to it, and under it
//     serve does each one's engine and byte-store work together (store.Get,
//     Set or Delete), in submission order, reusing the router's hash. A key
//     routes to one stripe, so each key's requests run in request order, and
//     the run is equivalent to its requests served one at a time.
//  3. Account, in request order: hits and misses, the allocator's Observe,
//     and the deadline check.
//
// A Stats frame runs alone: the run stops before it, and a run it heads takes
// nothing after it, so its snapshot counts every request before it and none
// after. The collection never blocks: a frame joins the run only when every
// one of its bytes is already buffered, so a half-arrived frame is left for
// the read loop.

import (
	"encoding/binary"
	"encoding/json"
	"time"

	"fscache/internal/shardcache"
)

// batchMax bounds one run: enough to amortize the lock handshake, small
// enough that the head request's response is not held behind an unbounded
// run.
const batchMax = 32

// opBadParse marks a slot whose frame was intact but whose payload failed
// to parse; it flows through the run as an in-order StatusBadRequest.
const opBadParse Op = 0xff

// run is the reader-goroutine-owned scratch for one connection's runs; every
// slice is reused run to run.
type run struct {
	frames [][]byte   // arena: frame buffer per slot (slot 0 unused; the head frame is the readLoop's)
	reqs   []Request  // parsed requests, submission order
	resps  []Response // responses, same order
	arena  []byte     // the run's GET values, copied out of the store
	accs   []shardcache.Access
	accIdx []int32 // accs[j] drives reqs[accIdx[j]]
	batch  *shardcache.Batch
}

func newRun(e *shardcache.Engine) *run {
	return &run{
		frames: make([][]byte, batchMax),
		reqs:   make([]Request, 0, batchMax),
		resps:  make([]Response, 0, batchMax),
		accs:   make([]shardcache.Access, 0, batchMax),
		accIdx: make([]int32, 0, batchMax),
		batch:  e.NewBatch(),
	}
}

// nextBuffered reports whether the connection's next frame is already fully
// buffered — reading it cannot block — and its op byte, peeking the length
// prefix and header without consuming anything.
func (c *conn) nextBuffered() (whole bool, op Op) {
	const peekLen = lenPrefixSize + 2 // prefix + version + op
	if c.br.Buffered() < peekLen {
		return false, 0
	}
	pfx, err := c.br.Peek(peekLen)
	if err != nil {
		return false, 0
	}
	n := int(binary.LittleEndian.Uint32(pfx))
	if n < reqHeaderSize || n > MaxFrame {
		return false, 0 // damaged prefix: let the read loop classify it
	}
	if c.br.Buffered() < lenPrefixSize+n {
		return false, 0 // frame still arriving; do not block on it
	}
	return true, Op(pfx[lenPrefixSize+1])
}

// parse decodes an intact frame; a payload that fails to parse is counted as
// a bad frame and becomes an opBadParse slot, answered in order.
func (c *conn) parse(frame []byte) Request {
	req, err := ParseRequest(frame)
	if err != nil {
		c.srv.badFrames.Add(1)
		req = Request{Op: opBadParse, Seq: req.Seq}
	}
	return req
}

// serve does request accs[j]'s work under h, the held stripe its address
// routes to. A GET copies its value onto the run's arena and accesses the
// engine unless it is stale (FlagStale already set); a SET accesses the
// engine and stores its bytes at the line the access reports; a DEL empties
// its line. A value slice stays valid when the arena grows: it keeps the old
// array.
func (c *conn) serve(h shardcache.Locked, j int32) {
	r, st := c.run, c.srv.store
	a, i := &r.accs[j], r.accIdx[j]
	req, resp := &r.reqs[i], &r.resps[i]
	found := true
	switch req.Op {
	case OpGet:
		n := len(r.arena)
		r.arena, found = st.Get(h, a.Addr, a.Part, req.Key, r.arena, resp.Flags&FlagStale != 0)
		resp.Value = r.arena[n:]
	case OpSet:
		st.Set(h, a.Addr, a.Part, req.Key, req.Value)
	case OpDel:
		found = st.Delete(h, a.Addr)
	}
	if !found {
		resp.Status = StatusNotFound
	}
}

// handleRun serves head plus every immediately-following fully-buffered
// frame as one run, sending all responses in order. It returns false when
// the connection must drop.
func (c *conn) handleRun(head *Request) bool {
	s, r := c.srv, c.run

	// Collect: head, then the buffered frames up to a Stats frame.
	r.reqs = append(r.reqs[:0], *head)
	for len(r.reqs) < batchMax && head.Op != OpStats {
		if whole, op := c.nextBuffered(); !whole || op == OpStats {
			break
		}
		i := len(r.reqs)
		frame, err := ReadFrame(c.br, r.frames[i])
		r.frames[i] = frame
		if err != nil {
			break // cannot happen for a fully-buffered frame; be safe
		}
		r.reqs = append(r.reqs, c.parse(frame))
	}

	// One clock read for the run's admission and latency base, one after
	// the store and engine pass for the deadlines and the latency sample.
	start := time.Now()
	nowNS := int64(start.Sub(s.start))
	r.resps = r.resps[:len(r.reqs)]
	r.accs, r.accIdx, r.arena = r.accs[:0], r.accIdx[:0], r.arena[:0]

	// Decide: control ops, validation and admission, no locks.
	for i := range r.reqs {
		req, resp := &r.reqs[i], &r.resps[i]
		*resp = Response{Status: StatusOK, Tenant: req.Tenant, Seq: req.Seq}
		switch {
		case req.Op == OpPing:
			continue
		case req.Op == OpStats:
			var err error
			if resp.Value, err = json.Marshal(s.Stats()); err != nil {
				resp.Status = StatusError
			}
			continue
		case req.Op < OpGet || req.Op > OpDel || int(req.Tenant) >= len(s.adm.tenants) || len(req.Key) == 0:
			resp.Status = StatusBadRequest
			continue
		}
		switch s.adm.decide(s.adm.tenants[req.Tenant], req.Op, nowNS) {
		case vReject:
			resp.Status = StatusOverload
			continue
		case vShed:
			resp.Status = StatusShed
			continue
		case vStale:
			// Degraded fast path: bytes only, no recency update. Guaranteed
			// tenants keep answering while the engine is the bottleneck.
			resp.Flags |= FlagStale
		default:
			if s.cfg.testHook != nil {
				s.cfg.testHook(req)
			}
		}
		r.accs = append(r.accs, shardcache.Access{Addr: hashKey(req.Key), Part: int(req.Tenant)})
		r.accIdx = append(r.accIdx, int32(i))
	}

	// Serve: one lock per touched stripe.
	r.batch.Each(r.accs, c.serve)
	lat := time.Since(start)

	// Account: every request that accessed the engine is Observed, and an
	// admitted request whose work finished past its deadline says so.
	for j, a := range r.accs {
		i := r.accIdx[j]
		req, resp := &r.reqs[i], &r.resps[i]
		t := s.adm.tenants[req.Tenant]
		if resp.Flags&FlagStale != 0 {
			if resp.Status == StatusNotFound {
				resp.Flags = 0
			}
			continue
		}
		if req.Op == OpGet {
			if resp.Status == StatusNotFound {
				t.misses.Add(1)
				continue
			}
			resp.Flags |= FlagHit
			t.hits.Add(1)
		}
		if req.Op != OpDel && s.cfg.Alloc != nil {
			s.cfg.Alloc.Observe(a.Part, a.Addr)
		}
		if expired(req, lat) {
			// The work is done but the client's deadline passed while we
			// did it; tell the truth so the client does not count a slow
			// success as fresh.
			t.deadlined.Add(1)
			*resp = Response{Status: StatusDeadline, Tenant: req.Tenant, Seq: req.Seq}
		}
	}

	// The whole run completed together, so every request observes the run's
	// elapsed time — the same latency a pipelined client would measure.
	c.record(lat, len(r.reqs))

	for i := range r.resps {
		// A failed Stats snapshot is an internal failure: answer it, then
		// drop the connection.
		if !c.send(&r.resps[i]) || r.resps[i].Status == StatusError {
			return false
		}
	}
	if cap(r.arena) > bufKeep {
		r.arena = nil // grew for large values; do not hold on to it
	}
	return true
}
