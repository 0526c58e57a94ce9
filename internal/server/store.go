package server

import (
	"sync"

	"fscache/internal/xrand"
)

// store holds the real bytes behind the simulated replacement decisions.
// It is keyed by the same 64-bit address the engine sees (hashKey of the
// wire key), so the synchronization contract is direct:
//
//   - a SET that the engine admits installs a line for addr and Puts the
//     bytes; if the engine evicted a victim, the victim's addr is Evicted
//     in the same request, so store residency tracks line residency;
//   - a GET consults the store first — bytes present mean the line is (or
//     was a moment ago) resident — and only then refreshes the engine.
//
// Two keys colliding on the full 64-bit hash alias one cache line, exactly
// like address aliasing in the simulator; the stored entry keeps the wire
// key so a GET never returns another key's bytes on a collision (it
// reports NotFound instead).
//
// The store is sharded by address so connection goroutines do not fight
// over one map lock; shard count is fixed at construction (power of two).
//
// Ownership: a value's bytes are valid only under its shard's lock. Put
// overwrites them in place when the new value fits the entry's buffer, so
// Get copies out under the lock and nothing outside the store ever aliases
// an entry. The one buffer that leaves a shard is an evicted one: Evict
// unlinks it and hands it to its caller, who owns it until passing it to Put
// as the spare, so a SET's new entry takes its victim's buffer whichever
// shards the two keys hash to, and a SET churn of equal-sized values
// produces no garbage. Any other buffer the store stops holding is garbage:
// the store keeps no free list.
type store struct {
	shards []storeShard
	mask   uint64
}

type storeShard struct {
	mu sync.RWMutex
	//fs:guardedby mu
	m map[uint64]storeEntry
	//fs:guardedby mu
	bytes int64
}

// fits reports whether buf holds n bytes while wasting under a fifth of
// itself: n ≤ cap ≤ n + n/4.
func fits(buf []byte, n int) bool {
	return n <= cap(buf) && cap(buf) <= n+n/4
}

type storeEntry struct {
	key string
	val []byte
}

func newStore(shards int) *store {
	if shards <= 0 || shards&(shards-1) != 0 {
		panic("server: store shard count must be a positive power of two")
	}
	s := &store{shards: make([]storeShard, shards), mask: uint64(shards - 1)}
	for i := range s.shards {
		//fslint:ignore lockcheck constructor init; the store has not escaped newStore yet
		s.shards[i].m = make(map[uint64]storeEntry)
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

func (s *store) shard(addr uint64) *storeShard {
	// Addresses are Mix64-finalized; the low bits are already uniform.
	return &s.shards[addr&s.mask]
}

// Get appends the value stored for addr to dst if its key matches, and
// returns the extended slice.
func (s *store) Get(addr uint64, key, dst []byte) ([]byte, bool) {
	sh := s.shard(addr)
	sh.mu.RLock()
	e, ok := sh.m[addr]
	ok = ok && e.key == string(key)
	if ok {
		dst = append(dst, e.val...)
	}
	sh.mu.RUnlock()
	return dst, ok
}

// Put stores value bytes for addr, copying both key and value out of the
// frame buffer: into the entry's own buffer when the value fits it, else
// into spare when it fits that, else into a new buffer of the value's
// length. spare is a buffer from Evict, or nil; Put takes it over.
func (s *store) Put(addr uint64, key, val, spare []byte) {
	sh := s.shard(addr)
	sh.mu.Lock()
	e := sh.m[addr] // the zero entry when absent
	sh.bytes += int64(len(key) + len(val) - len(e.key) - len(e.val))
	if e.key != string(key) { // new entry, or a colliding key's
		e.key = string(key)
	}
	switch {
	case fits(e.val, len(val)): // overwritten in place
	case fits(spare, len(val)):
		e.val = spare
	default:
		e.val = make([]byte, 0, len(val))
	}
	e.val = append(e.val[:0], val...)
	sh.m[addr] = e
	sh.mu.Unlock()
}

// remove unlinks addr's entry, if any, from the shard's map and byte count.
//
//fs:callerholds mu
func (sh *storeShard) remove(addr uint64) (e storeEntry, ok bool) {
	if e, ok = sh.m[addr]; ok {
		sh.bytes -= int64(len(e.key) + len(e.val))
		delete(sh.m, addr)
	}
	return e, ok
}

// Delete drops addr's bytes, reporting whether an entry existed.
func (s *store) Delete(addr uint64) bool {
	sh := s.shard(addr)
	sh.mu.Lock()
	_, ok := sh.remove(addr)
	sh.mu.Unlock()
	return ok
}

// Evict drops addr's bytes and hands the caller their buffer (nil when
// there was no entry) to pass to Put as its spare.
func (s *store) Evict(addr uint64) []byte {
	sh := s.shard(addr)
	sh.mu.Lock()
	e, _ := sh.remove(addr)
	sh.mu.Unlock()
	return e.val
}

// Stats returns the entry and byte totals across shards.
func (s *store) Stats() (entries int, bytes int64) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		entries += len(sh.m)
		bytes += sh.bytes
		sh.mu.RUnlock()
	}
	return entries, bytes
}
