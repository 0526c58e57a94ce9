package server

// Pipelined GET batching.
//
// A client that pipelines requests (every fsload net worker, any batching
// client) lands several complete frames in the connection's read buffer at
// once. The batch path collects the maximal run of consecutive
// fully-buffered GET frames and submits them through shardcache.Batch.Each,
// so one stripe lock covers every GET of the run that routes to it: under
// it each looks its key up, refreshes the engine line and copies its value
// (store.Get), in submission order. Responses are still sent strictly in
// request order.
//
// Only GETs batch. SET/DEL mutate the byte store and Ping/Stats are
// control-plane, so they keep the sequential path; a non-GET frame simply
// ends the run (it is peeked, never consumed). The collection never blocks:
// a frame joins the run only when every one of its bytes is already
// buffered, so a half-arrived frame is left for the normal read path.

import (
	"encoding/binary"
	"time"

	"fscache/internal/shardcache"
)

// batchMax bounds one pipelined run: enough to amortize the lock handshake,
// small enough that the head request's response is not held behind an
// unbounded run.
const batchMax = 32

// opBadParse marks a slot whose frame was intact but whose payload failed
// to parse; it flows through the run as an in-order StatusBadRequest.
const opBadParse Op = 0xff

// getBatch is the reader-goroutine-owned scratch for one connection's
// pipelined runs; every slice is reused run to run.
type getBatch struct {
	frames [][]byte   // arena: frame buffer per slot (slot 0 unused; the head frame is the readLoop's)
	reqs   []Request  // parsed requests, submission order
	resps  []Response // responses, same order
	arena  []byte     // the run's value bytes, copied out of the store
	accs   []shardcache.Access
	accIdx []int32 // accs[j] drives reqs[accIdx[j]]
	batch  *shardcache.Batch
}

func newGetBatch(e *shardcache.Engine) *getBatch {
	return &getBatch{
		frames: make([][]byte, batchMax),
		reqs:   make([]Request, 0, batchMax),
		resps:  make([]Response, 0, batchMax),
		accs:   make([]shardcache.Access, 0, batchMax),
		accIdx: make([]int32, 0, batchMax),
		batch:  e.NewBatch(),
	}
}

// nextBuffered reports whether the connection's next frame is already fully
// buffered — reading it cannot block — and whether it is also a GET,
// peeking the length prefix, version and op without consuming anything.
func (c *conn) nextBuffered() (whole, get bool) {
	const peekLen = lenPrefixSize + 2 // prefix + version + op
	if c.br.Buffered() < peekLen {
		return false, false
	}
	pfx, err := c.br.Peek(peekLen)
	if err != nil {
		return false, false
	}
	n := int(binary.LittleEndian.Uint32(pfx))
	if n < reqHeaderSize || n > MaxFrame {
		return false, false // damaged prefix: let the normal path classify it
	}
	if c.br.Buffered() < lenPrefixSize+n {
		return false, false // frame still arriving; do not block on it
	}
	return true, pfx[lenPrefixSize] == Version && Op(pfx[lenPrefixSize+1]) == OpGet
}

// serve answers the run's GETs that route to h's stripe, idx indexing accs,
// under its lock: each copies its value onto the run's arena, or is not
// found. A stale GET (FlagStale already set) leaves the engine untouched. A
// value slice stays valid when the arena grows: it keeps the old array.
func (c *conn) serve(h shardcache.Locked, idx []int32) {
	b := c.gb
	for _, j := range idx {
		a, i := &b.accs[j], b.accIdx[j]
		resp, start := &b.resps[i], len(b.arena)
		var found bool
		b.arena, found = c.srv.store.Get(h, a.Addr, a.Part, b.reqs[i].Key, b.arena, resp.Flags&FlagStale != 0)
		if found {
			resp.Value = b.arena[start:]
		} else {
			resp.Status = StatusNotFound
		}
	}
}

// handleGetRun executes head plus every immediately-following fully-buffered
// pipelined GET as one batched engine submission, sending all responses in
// order. It returns false when the connection must drop.
func (c *conn) handleGetRun(head *Request) bool {
	s := c.srv
	b := c.gb
	if b == nil {
		b = newGetBatch(s.engine)
		c.gb = b
	}

	// Collect: head, then the run of buffered GETs.
	b.reqs = b.reqs[:0]
	b.reqs = append(b.reqs, *head)
	for len(b.reqs) < batchMax {
		if _, get := c.nextBuffered(); !get {
			break
		}
		i := len(b.reqs)
		frame, err := ReadFrame(c.br, b.frames[i])
		b.frames[i] = frame
		if err != nil {
			break // cannot happen for a fully-buffered frame; be safe
		}
		req, err := ParseRequest(frame)
		if err != nil {
			// Framed but malformed: answer in-order like the normal path.
			s.badFrames.Add(1)
			req = Request{Op: opBadParse, Seq: req.Seq}
		}
		b.reqs = append(b.reqs, req)
	}

	// One clock read for the run's admission and latency base, one after
	// the engine pass for the deadlines and the latency sample.
	start := time.Now()
	nowNS := int64(start.Sub(s.start))
	b.resps = b.resps[:len(b.reqs)]
	b.accs, b.accIdx, b.arena = b.accs[:0], b.accIdx[:0], b.arena[:0]

	// Decide: admission, no locks.
	for i := range b.reqs {
		req, resp := &b.reqs[i], &b.resps[i]
		*resp = Response{Status: StatusOK, Tenant: req.Tenant, Seq: req.Seq}
		if req.Op == opBadParse {
			resp.Status = StatusBadRequest
			continue
		}
		if int(req.Tenant) >= len(s.adm.tenants) || len(req.Key) == 0 {
			resp.Status = StatusBadRequest
			continue
		}
		switch s.adm.decide(s.adm.tenants[req.Tenant], OpGet, nowNS) {
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
		b.accs = append(b.accs, shardcache.Access{Addr: hashKey(req.Key), Part: int(req.Tenant)})
		b.accIdx = append(b.accIdx, int32(i))
	}

	// Store and engine: one lock per touched stripe.
	b.batch.Each(b.accs, c.serve)
	lat := time.Since(start)
	for j := range b.accs {
		i := b.accIdx[j]
		req, resp := &b.reqs[i], &b.resps[i]
		t, stale := s.adm.tenants[req.Tenant], resp.Flags&FlagStale != 0
		if resp.Status == StatusNotFound {
			resp.Flags = 0
			if !stale {
				t.misses.Add(1)
			}
			continue
		}
		if stale {
			continue
		}
		if s.cfg.Alloc != nil {
			s.cfg.Alloc.Observe(b.accs[j].Part, b.accs[j].Addr)
		}
		resp.Flags |= FlagHit
		t.hits.Add(1)
		if expired(req, lat) {
			// Work done but the deadline passed during the batch; report it
			// truthfully, exactly like the per-request path.
			t.deadlined.Add(1)
			resp.Status = StatusDeadline
			resp.Flags = 0
			resp.Value = nil
		}
	}

	// The whole run completed together, so every request observes the run's
	// elapsed time — the same latency a pipelined client would measure.
	c.record(lat, len(b.reqs))

	for i := range b.resps {
		if !c.send(&b.resps[i]) {
			return false
		}
	}
	if cap(b.arena) > bufKeep {
		b.arena = nil // grew for large values; do not hold on to it
	}
	return true
}
