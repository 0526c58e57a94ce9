package server

import (
	"math/bits"
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
// overwrites them in place, and a deleted or replaced entry's buffer is
// parked on the shard's free list for the next Put to fill, so Get copies
// out under the lock and nothing outside the store ever aliases an entry.
// The one buffer that leaves a shard is an evicted one: Evict unlinks it
// and hands it to its caller, who owns it until passing it to Put as the
// spare, so a SET's new entry takes its victim's buffer whichever shards the
// two keys hash to, rather than the victim's buffer parking in one shard
// while the new entry pops from another. A churning store therefore
// produces no garbage; the free list is bounded by 1/freeFrac of the
// shard's live bytes.
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
	// free[c] holds the parked buffers of capacity class c, freeBytes their
	// total capacity.
	//fs:guardedby mu
	free [valClasses][][]byte
	//fs:guardedby mu
	freeBytes int64
}

// freeFrac bounds a shard's parked capacity to bytes/freeFrac; valClasses
// covers values up to MaxFrame.
const (
	freeFrac   = 8
	valClasses = 4*(20-4) + 1
)

// valClass maps a value length to its buffer's capacity class and
// capacity: four steps per power of two from 16 B up, so a buffer wastes
// under a fifth of itself and any buffer of a class holds any value of it.
func valClass(n int) (class, size int) {
	if n <= 16 {
		return 0, 16
	}
	k := bits.Len(uint(n - 1)) // 2^(k-1) < n ≤ 2^k
	step := 1 << (k - 3)
	size = (n + step - 1) &^ (step - 1)
	return 4*(k-5) + size>>(k-3) - 4, size
}

// pop takes a parked buffer of the class, or returns nil.
//
//fs:callerholds mu
func (sh *storeShard) pop(class int) []byte {
	l := sh.free[class]
	if len(l) == 0 {
		return nil
	}
	buf := l[len(l)-1]
	l[len(l)-1] = nil
	sh.free[class] = l[:len(l)-1]
	sh.freeBytes -= int64(cap(buf))
	return buf
}

// park puts buf (nil: nothing) on the free list, then drops parked buffers,
// largest class first, until the list is back within its bound. Every
// change to sh.bytes is followed by a park, which is what keeps the bound.
//
//fs:callerholds mu
func (sh *storeShard) park(buf []byte) {
	if buf != nil {
		class, _ := valClass(cap(buf))
		sh.free[class] = append(sh.free[class], buf)
		sh.freeBytes += int64(cap(buf))
	}
	for class := valClasses - 1; sh.freeBytes > sh.bytes/freeFrac; {
		if sh.pop(class) == nil {
			class--
		}
	}
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
// frame buffer: into the entry's own buffer when that is of the right
// class, else into spare when that is, else into a parked or new one. spare
// is a buffer from Evict, or nil; Put takes it over and parks it unless the
// entry keeps it.
func (s *store) Put(addr uint64, key, val, spare []byte) {
	class, size := valClass(len(val))
	sh := s.shard(addr)
	sh.mu.Lock()
	e := sh.m[addr] // the zero entry when absent
	sh.bytes += int64(len(key) + len(val) - len(e.key) - len(e.val))
	if e.key != string(key) { // new entry, or a colliding key's
		e.key = string(key)
	}
	var old []byte
	switch {
	case cap(e.val) == size: // overwritten in place
	case cap(spare) == size:
		old, e.val, spare = e.val, spare, nil
	default:
		old, e.val = e.val, sh.pop(class)
		if e.val == nil {
			e.val = make([]byte, 0, size)
		}
	}
	e.val = append(e.val[:0], val...)
	sh.m[addr] = e
	sh.park(old)
	sh.park(spare)
	sh.mu.Unlock()
}

// remove unlinks addr's entry, if any, from the shard's map and byte count.
// The caller parks afterwards, which keeps the free list's bound.
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
	e, ok := sh.remove(addr)
	sh.park(e.val)
	sh.mu.Unlock()
	return ok
}

// Evict drops addr's bytes and hands the caller their buffer (nil when
// there was no entry) to pass to Put as its spare.
func (s *store) Evict(addr uint64) []byte {
	sh := s.shard(addr)
	sh.mu.Lock()
	e, _ := sh.remove(addr)
	sh.park(nil)
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
