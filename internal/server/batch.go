package server

// Pipelined GET batching.
//
// A client that pipelines requests (every fsload net worker, any batching
// client) lands several complete frames in the connection's read buffer at
// once. The per-request path would take one engine stripe lock per GET;
// the batch path instead collects the maximal run of consecutive
// fully-buffered GET frames and submits them through shardcache.Batch, so
// one lock acquisition per stripe covers the whole run. Responses are
// still sent strictly in request order.
//
// Only GETs batch. SET/DEL mutate the byte store and Ping/Stats are
// control-plane, so they keep the sequential path; a non-GET frame simply
// ends the run (it is peeked, never consumed). The collection never blocks:
// a frame joins the run only when every one of its bytes is already
// buffered, so a half-arrived frame is left for the normal read path.
//
// Semantics: within a run, every byte-store read happens before the engine
// pass. Request j can therefore read bytes for a key that request i<j's
// engine access then evicts — the same window the per-request path already
// tolerates for concurrent connections: if the engine evicted the line since
// the bytes were read, the access re-installs it (a refetch) and may
// victimize another line, whose bytes must go. The eviction's store.Delete
// still runs before any response is sent. The bytes themselves are copied
// out under the store's lock (see store.go), so a run's values stay intact
// whatever happens to their lines during the engine pass.

import (
	"encoding/binary"
	"time"

	"fscache/internal/core"
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
	frames  [][]byte   // arena: frame buffer per slot (slot 0 unused; the head frame is the readLoop's)
	reqs    []Request  // parsed requests, submission order
	resps   []Response // responses, same order
	vals    [][]byte   // byte-store value per request (nil until found), a slice of arena
	arena   []byte     // the run's value bytes, copied out of the store
	accs    []shardcache.Access
	accIdx  []int32 // accs[j] drives reqs[accIdx[j]]
	results []core.AccessResult
	batch   *shardcache.Batch
}

func newGetBatch(e *shardcache.Engine) *getBatch {
	return &getBatch{
		frames:  make([][]byte, batchMax),
		reqs:    make([]Request, 0, batchMax),
		resps:   make([]Response, 0, batchMax),
		vals:    make([][]byte, batchMax),
		accs:    make([]shardcache.Access, 0, batchMax),
		accIdx:  make([]int32, 0, batchMax),
		results: make([]core.AccessResult, batchMax),
		batch:   e.NewBatch(),
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

// get copies key's value out of the store onto the run's arena. A slice
// returned earlier stays valid when the arena grows: it keeps the old array.
func (b *getBatch) get(st *store, addr uint64, key []byte) (val []byte, found bool) {
	start := len(b.arena)
	b.arena, found = st.Get(addr, key, b.arena)
	return b.arena[start:], found
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
	b.accs = b.accs[:0]
	b.accIdx = b.accIdx[:0]
	b.arena = b.arena[:0]

	// Decide: admission, deadlines and byte-store reads, no engine locks.
	for i := range b.reqs {
		req := &b.reqs[i]
		b.vals[i] = nil
		resp := &b.resps[i]
		*resp = Response{Status: StatusOK, Tenant: req.Tenant, Seq: req.Seq}
		if req.Op == opBadParse {
			resp.Status = StatusBadRequest
			continue
		}
		if int(req.Tenant) >= len(s.adm.tenants) || len(req.Key) == 0 {
			resp.Status = StatusBadRequest
			continue
		}
		t := s.adm.tenants[req.Tenant]
		switch s.adm.decide(t, OpGet, nowNS) {
		case vReject:
			resp.Status = StatusOverload
			continue
		case vShed:
			resp.Status = StatusShed
			continue
		case vStale:
			// Degraded fast path: bytes only, no engine locks, no recency
			// update. Guaranteed tenants keep answering while the engine is
			// the bottleneck.
			if val, found := b.get(s.store, hashKey(req.Key), req.Key); found {
				resp.Flags |= FlagStale
				resp.Value = val
			} else {
				resp.Status = StatusNotFound
			}
			continue
		}
		if s.cfg.testHook != nil {
			s.cfg.testHook(req)
		}
		addr := hashKey(req.Key)
		val, found := b.get(s.store, addr, req.Key)
		if !found {
			t.misses.Add(1)
			resp.Status = StatusNotFound
			continue
		}
		b.vals[i] = val
		b.accs = append(b.accs, shardcache.Access{Addr: addr, Part: int(req.Tenant)})
		b.accIdx = append(b.accIdx, int32(i))
	}

	// Engine: one batched pass, one lock per touched stripe.
	if len(b.accs) > 0 {
		b.batch.Access(b.accs, b.results[:len(b.accs)])
		if s.cfg.Alloc != nil {
			for j := range b.accs {
				s.cfg.Alloc.Observe(b.accs[j].Part, b.accs[j].Addr)
			}
		}
	}
	lat := time.Since(start)
	for j := range b.accs {
		i := b.accIdx[j]
		req, resp, res := &b.reqs[i], &b.resps[i], &b.results[j]
		if res.Evicted {
			s.store.Delete(res.EvictedAddr)
		}
		t := s.adm.tenants[req.Tenant]
		if res.Hit {
			resp.Flags |= FlagHit
		}
		t.hits.Add(1)
		resp.Value = b.vals[i]
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
