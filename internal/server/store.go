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
	stripes [][]entry // [g][l] is engine stripe g's line l, under g's lock
}

// entry is one line's wire key and value. A line is empty when its key is:
// wire keys are never empty (the server rejects them before the store), and
// an empty line keeps its buffers at length zero. A DEL empties the line but
// leaves the engine's resident, to age out under its partition's replacement
// pressure.
type entry struct {
	key, val []byte
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
	s := &store{eng: e, stripes: make([][]entry, n)}
	for g := range s.stripes {
		s.stripes[g] = make([]entry, e.Lines()/n)
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
	lines, l := s.stripes[h.Stripe()], h.Lookup(addr)
	if l < 0 || !bytes.Equal(lines[l].key, key) {
		return dst, false
	}
	if !stale && !h.Access(addr, part).Hit {
		panic("server: store bytes at a line the engine does not hold")
	}
	return append(dst, lines[l].val...), true
}

// Set accesses the engine for addr and part under h, the held stripe addr
// routes to, and stores key and value at the line the access reports, in the
// line's own buffers where they fit: a SET that lands on its victim's line
// allocates nothing. Whatever the line held goes. It returns the engine
// access's result.
func (s *store) Set(h shardcache.Locked, addr uint64, part int, key, val []byte) core.AccessResult {
	res := h.Access(addr, part)
	e := &s.stripes[h.Stripe()][res.Line]
	e.key, e.val = refill(e.key, key), refill(e.val, val)
	return res
}

// Delete drops addr's bytes under h, the held stripe addr routes to, keeping
// the line's buffers, and reports whether an entry existed.
func (s *store) Delete(h shardcache.Locked, addr uint64) bool {
	lines, l := s.stripes[h.Stripe()], h.Lookup(addr)
	ok := l >= 0 && len(lines[l].key) > 0
	if ok {
		lines[l] = entry{lines[l].key[:0], lines[l].val[:0]}
	}
	return ok
}

// Stats counts the non-empty lines and the key and value bytes they hold,
// one stripe lock at a time.
func (s *store) Stats() (entries int, bytes int64) {
	for g, lines := range s.stripes {
		h := s.eng.LockStripe(g)
		for _, e := range lines {
			if len(e.key) > 0 {
				entries++
				bytes += int64(len(e.key) + len(e.val))
			}
		}
		h.Unlock()
	}
	return entries, bytes
}
