package server

import (
	"bytes"
	"sync"

	"fscache/internal/shardcache"
	"fscache/internal/xrand"
)

// store holds the real bytes behind the simulated replacement decisions, at
// the engine's own lines: store line l holds the wire key and value of the
// address (hashKey of the key) that engine line l holds. A SET Puts its
// bytes at the line its engine access reports, over whatever the line held;
// a GET reads the store before it refreshes the engine, and Deletes the
// victim if that access evicts one. An address can only sit in the ways of
// its engine set (Engine.SetOf), so Get and Delete scan those under the
// store's own lock, one per engine stripe, and take no engine lock. The line
// keeps the wire key, so keys colliding on the full 64-bit hash never read
// each other's bytes. A line's bytes are valid only under its stripe's lock,
// and Get copies them out under it. DESIGN.md §14 has the buffer rule and
// the races between an engine access and its store write.
type store struct {
	eng       *shardcache.Engine
	ways, per int // lines per set and per stripe
	stripes   []storeStripe
}

// storeStripe is the store's share of one engine stripe's lines. A line is
// empty when its key is: wire keys are never empty (the server rejects them
// before the store), and an empty line keeps its buffers at length zero.
type storeStripe struct {
	mu sync.RWMutex
	//fs:guardedby mu
	addr []uint64
	//fs:guardedby mu
	key, val [][]byte
	//fs:guardedby mu
	entries int
	//fs:guardedby mu
	bytes int64
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
	n := e.Shards() * e.Stripes()
	s := &store{eng: e, ways: e.Ways(), per: e.Lines() / n, stripes: make([]storeStripe, n)}
	for g := range s.stripes {
		s.stripes[g] = storeStripe{
			addr: make([]uint64, s.per),
			key:  make([][]byte, s.per),
			val:  make([][]byte, s.per),
		}
	}
	return s
}

// hashKey maps a wire key to the 64-bit address the engine and the store
// share: FNV-1a over the bytes, finalized with Mix64 so low-entropy keys
// still spread across the H3 index null space (see shardcache on why raw
// low-entropy addresses are unsafe).
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

// line returns the stripe holding global line l and l's index there.
func (s *store) line(l int) (*storeStripe, int) {
	return &s.stripes[l/s.per], l % s.per
}

// find returns the index of the line naming addr in the set starting at
// first, or -1.
//
//fs:callerholds mu
func (st *storeStripe) find(first, ways int, addr uint64) int {
	for i := first; i < first+ways; i++ {
		if st.addr[i] == addr && len(st.key[i]) > 0 {
			return i
		}
	}
	return -1
}

// clear empties line i, keeping its buffers.
//
//fs:callerholds mu
func (st *storeStripe) clear(i int) {
	st.entries--
	st.bytes -= int64(len(st.key[i]) + len(st.val[i]))
	st.key[i], st.val[i] = st.key[i][:0], st.val[i][:0]
}

// Get appends the value stored for addr to dst if its key matches, and
// returns the extended slice.
func (s *store) Get(addr uint64, key, dst []byte) ([]byte, bool) {
	st, first := s.line(s.eng.SetOf(addr) * s.ways)
	st.mu.RLock()
	i := st.find(first, s.ways, addr)
	ok := i >= 0 && bytes.Equal(st.key[i], key)
	if ok {
		dst = append(dst, st.val[i]...)
	}
	st.mu.RUnlock()
	return dst, ok
}

// Put stores the key and value bytes of addr at global line l, the line the
// engine reported holding addr, in the line's own buffers where they fit: a
// SET that lands on its victim's line allocates nothing. Whatever the line
// held goes, and so does another line of the set naming addr, which two
// SETs racing between their engine accesses and Puts can leave behind.
func (s *store) Put(addr uint64, l int, key, val []byte) {
	st, i := s.line(l)
	st.mu.Lock()
	if j := st.find(i&^(s.ways-1), s.ways, addr); j >= 0 && j != i {
		st.clear(j)
	}
	if len(st.key[i]) == 0 {
		st.entries++
	}
	st.bytes += int64(len(key) + len(val) - len(st.key[i]) - len(st.val[i]))
	st.addr[i] = addr
	st.key[i], st.val[i] = refill(st.key[i], key), refill(st.val[i], val)
	st.mu.Unlock()
}

// Delete drops addr's bytes, reporting whether an entry existed.
func (s *store) Delete(addr uint64) bool {
	st, first := s.line(s.eng.SetOf(addr) * s.ways)
	st.mu.Lock()
	i := st.find(first, s.ways, addr)
	if i >= 0 {
		st.clear(i)
	}
	st.mu.Unlock()
	return i >= 0
}

// Stats returns the entry and byte totals across stripes.
func (s *store) Stats() (entries int, bytes int64) {
	for g := range s.stripes {
		st := &s.stripes[g]
		st.mu.RLock()
		entries += st.entries
		bytes += st.bytes
		st.mu.RUnlock()
	}
	return entries, bytes
}
