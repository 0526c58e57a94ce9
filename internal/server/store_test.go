package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"fscache/internal/xrand"
)

// stampedValue builds a self-describing value of n ≥ 16 bytes: key id,
// version, a body derived from both, and a CRC over everything before it.
func stampedValue(buf []byte, id, version uint32, n int) []byte {
	buf = append(buf[:0], make([]byte, n)...)
	binary.LittleEndian.PutUint32(buf[0:], id)
	binary.LittleEndian.PutUint32(buf[4:], version)
	for i := 8; i < n-4; i++ {
		buf[i] = byte(id + version + uint32(i))
	}
	binary.LittleEndian.PutUint32(buf[n-4:], crc32.ChecksumIEEE(buf[:n-4]))
	return buf
}

// verifyStamped reports whether val is an intact stampedValue for key id.
func verifyStamped(val []byte, id uint32) error {
	if len(val) < 16 {
		return fmt.Errorf("value of %d bytes", len(val))
	}
	if got := binary.LittleEndian.Uint32(val); got != id {
		return fmt.Errorf("bytes of key %d", got)
	}
	n := len(val)
	if crc32.ChecksumIEEE(val[:n-4]) != binary.LittleEndian.Uint32(val[n-4:]) {
		return fmt.Errorf("torn value (version %d, %d bytes)", binary.LittleEndian.Uint32(val[4:]), n)
	}
	return nil
}

// checkStore verifies every shard's accounting against its contents: the
// byte count is exact, the free list holds what freeBytes says and stays
// within its bound, and every buffer has exactly its class's capacity.
func checkStore(t *testing.T, s *store) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		var live, parked int64
		for _, e := range sh.m {
			live += int64(len(e.key) + len(e.val))
			if _, size := valClass(len(e.val)); cap(e.val) != size {
				t.Errorf("shard %d: %d-byte value in a %d-byte buffer, class size %d", i, len(e.val), cap(e.val), size)
			}
		}
		for class, l := range sh.free {
			for _, buf := range l {
				parked += int64(cap(buf))
				if c, _ := valClass(cap(buf)); c != class {
					t.Errorf("shard %d: %d-byte buffer parked in class %d", i, cap(buf), class)
				}
			}
		}
		if sh.bytes != live {
			t.Errorf("shard %d: bytes %d, contents %d", i, sh.bytes, live)
		}
		if sh.freeBytes != parked {
			t.Errorf("shard %d: freeBytes %d, parked %d", i, sh.freeBytes, parked)
		}
		if sh.freeBytes > sh.bytes/freeFrac {
			t.Errorf("shard %d: %d bytes parked for %d live, bound 1/%d", i, sh.freeBytes, sh.bytes, freeFrac)
		}
		sh.mu.RUnlock()
	}
}

func TestValClass(t *testing.T) {
	last := -1
	for n := 0; n <= MaxFrame; n++ {
		class, size := valClass(n)
		if size < n || size > 16 && size-n >= size/5 {
			t.Fatalf("valClass(%d): size %d", n, size)
		}
		if c, sz := valClass(size); c != class || sz != size {
			t.Fatalf("valClass(%d) = %d,%d but its own size maps to %d,%d", n, class, size, c, sz)
		}
		if class != last && class != last+1 {
			t.Fatalf("valClass(%d): class %d after %d", n, class, last)
		}
		last = class
	}
	if last != valClasses-1 {
		t.Fatalf("MaxFrame lands in class %d of %d", last, valClasses)
	}
}

// TestStoreRecyclesWithoutAliasing is the store's ownership contract under
// -race: while writers overwrite and delete — so value buffers are rewritten
// in place and recycled between keys — a reader only ever gets an intact
// value of the key it asked for, and the accounting holds throughout.
func TestStoreRecyclesWithoutAliasing(t *testing.T) {
	const keys = 96
	s := newStore(4)
	var key [keys][]byte
	var addr [keys]uint64
	for i := range key {
		key[i] = []byte(fmt.Sprintf("stamped-%03d", i))
		addr[i] = hashKey(key[i])
	}
	rounds := 40000
	if testing.Short() {
		rounds = 8000
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := xrand.New(uint64(100 + w))
			var buf []byte
			for i := 0; i < rounds; i++ {
				// Writer w owns the keys ≡ w (mod 2), so versions per key
				// are its own; buffers still migrate between the two sets.
				k := 2*rng.Intn(keys/2) + w
				if rng.Bool(0.2) {
					s.Delete(addr[k])
					continue
				}
				n := 16 << rng.Intn(9) // 16 B … 4 KiB
				n += rng.Intn(n / 2)
				buf = stampedValue(buf, uint32(k), uint32(i), min(n, 4096))
				s.Put(addr[k], key[k], buf)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := xrand.New(uint64(200 + r))
			var dst []byte
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(keys)
				var ok bool
				if dst, ok = s.Get(addr[k], key[k], dst[:0]); ok {
					if err := verifyStamped(dst, uint32(k)); err != nil {
						t.Errorf("Get(%s): %v", key[k], err)
						return
					}
				}
				if n%512 == 0 {
					checkStore(t, s)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	checkStore(t, s)

	// The bound follows the live bytes down: shrink every value, then
	// delete everything.
	var buf []byte
	for _, n := range []int{1024, 64} {
		for k := range key {
			buf = stampedValue(buf, uint32(k), 0, n)
			s.Put(addr[k], key[k], buf)
		}
		checkStore(t, s)
		if entries, bytes := s.Stats(); entries != keys || bytes != int64(keys*(len(key[0])+n)) {
			t.Fatalf("%d-byte values: %d entries, %d bytes", n, entries, bytes)
		}
	}
	for k := range key {
		if !s.Delete(addr[k]) {
			t.Fatalf("key %d missing", k)
		}
		checkStore(t, s)
	}
	if entries, bytes := s.Stats(); entries != 0 || bytes != 0 {
		t.Fatalf("emptied store reports %d entries, %d bytes", entries, bytes)
	}
}
