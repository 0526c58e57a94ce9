package server

import (
	"bytes"

	"fscache/internal/core"
	"fscache/internal/shardcache"
	"fscache/internal/xrand"
)

// store holds the real bytes behind the simulated replacement decisions, at
// the engine's own lines and under the engine's own stripe locks: store line
// l of stripe g holds the wire key and value of the address (hashKey of the
// key) that engine stripe g's line l holds. Every operation runs under the
// one stripe lock its address routes to, which its caller holds
// (shardcache.Locked), and does the engine's work and the store's in that
// critical section, so the two never disagree:
// a SET writes its bytes at the line its engine access reports, over whatever
// the line held, and a GET that finds bytes always hits. The line keeps the
// wire key, so keys colliding on the full 64-bit hash never read each other's
// bytes. DESIGN.md §14 has the buffer rule.
type store struct {
	eng     *shardcache.Engine
	stripes []storeStripe
}

// storeStripe is the store's share of one engine stripe's lines; the stripe's
// lock guards it. A line is empty when its key is: wire keys are never empty
// (the server rejects them before the store), and an empty line keeps its
// buffers at length zero. A DEL empties the line but leaves the engine's
// resident, to age out under its partition's replacement pressure.
type storeStripe struct {
	key, val [][]byte
	entries  int
	bytes    int64
}

// fits reports whether buf holds n bytes while wasting under a fifth of
// itself: n ≤ cap ≤ n + n/4.
func fits(buf []byte, n int) bool {
	return n <= cap(buf) && cap(buf) <= n+n/4
}

// refill copies src into buf when it fits there, else into a new buffer of
// src's length, and returns the buffer that holds it.
func refill(buf, src []byte) []byte {
	if !fits(buf, len(src)) {
		buf = make([]byte, 0, len(src))
	}
	return append(buf[:0], src...)
}

func newStore(e *shardcache.Engine) *store {
	n := e.Stripes()
	s := &store{eng: e, stripes: make([]storeStripe, n)}
	for g := range s.stripes {
		s.stripes[g] = storeStripe{key: make([][]byte, e.Lines()/n), val: make([][]byte, e.Lines()/n)}
	}
	return s
}

// hashKey maps a wire key to the 64-bit address the engine and the store
// share: FNV-1a over the bytes, finalized with Mix64 so that low-entropy keys
// still spread across every set: raw addresses that vary in only a few bits
// can land in an H3 null space and reach a fraction of the sets.
func hashKey(key []byte) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return xrand.Mix64(h)
}

// Get appends key's value to dst when the store holds it, under h, the held
// stripe addr routes to. Unless stale, a GET that finds the bytes also
// accesses the engine for part: under the one lock it always hits.
func (s *store) Get(h shardcache.Locked, addr uint64, part int, key, dst []byte, stale bool) ([]byte, bool) {
	st, l := &s.stripes[h.Stripe()], h.Lookup(addr)
	if l < 0 || !bytes.Equal(st.key[l], key) {
		return dst, false
	}
	if !stale && !h.Access(addr, part).Hit {
		panic("server: store bytes at a line the engine does not hold")
	}
	return append(dst, st.val[l]...), true
}

// Set accesses the engine for addr and part under h, the held stripe addr
// routes to, and stores key and value at the line the access reports, in the
// line's own buffers where they fit: a SET that lands on its victim's line
// allocates nothing. Whatever the line held goes. It returns the engine
// access's result.
func (s *store) Set(h shardcache.Locked, addr uint64, part int, key, val []byte) core.AccessResult {
	res := h.Access(addr, part)
	st, l := &s.stripes[h.Stripe()], res.Line
	if len(st.key[l]) == 0 {
		st.entries++
	}
	st.bytes += int64(len(key) + len(val) - len(st.key[l]) - len(st.val[l]))
	st.key[l], st.val[l] = refill(st.key[l], key), refill(st.val[l], val)
	return res
}

// Delete drops addr's bytes under h, the held stripe addr routes to, keeping
// the line's buffers, and reports whether an entry existed.
func (s *store) Delete(h shardcache.Locked, addr uint64) bool {
	st, l := &s.stripes[h.Stripe()], h.Lookup(addr)
	ok := l >= 0 && len(st.key[l]) > 0
	if ok {
		st.entries--
		st.bytes -= int64(len(st.key[l]) + len(st.val[l]))
		st.key[l], st.val[l] = st.key[l][:0], st.val[l][:0]
	}
	return ok
}

// Stats returns the entry and byte totals across stripes.
func (s *store) Stats() (entries int, bytes int64) {
	for g := range s.stripes {
		h := s.eng.LockStripe(g)
		entries += s.stripes[g].entries
		bytes += s.stripes[g].bytes
		h.Unlock()
	}
	return entries, bytes
}
