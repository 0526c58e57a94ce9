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
// byte count is exact, and every value fits its buffer (Put's rule).
func checkStore(t *testing.T, s *store) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		var live int64
		for _, e := range sh.m {
			live += int64(len(e.key) + len(e.val))
			if !fits(e.val, len(e.val)) {
				t.Errorf("shard %d: %d-byte value in a %d-byte buffer", i, len(e.val), cap(e.val))
			}
		}
		if sh.bytes != live {
			t.Errorf("shard %d: bytes %d, contents %d", i, sh.bytes, live)
		}
		sh.mu.RUnlock()
	}
}

// TestStoreRecyclesWithoutAliasing is the store's ownership contract under
// -race: while writers overwrite and delete — so value buffers are rewritten
// in place when the new value fits and replaced when it does not — and one
// writer evicts a key and hands its buffer to the Put of another, as a SET
// does, across shards, a reader only ever gets an intact value of the key it
// asked for, and the accounting holds throughout.
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

	const setter = 2 // the writer that evicts for every Put
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w <= setter; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := xrand.New(uint64(100 + w))
			var buf []byte
			for i := 0; i < rounds; i++ {
				// Writer w owns the keys ≡ w (mod 3), so versions per key
				// are its own; buffers still migrate between the sets.
				k := 3*rng.Intn(keys/3) + w
				var spare []byte
				switch {
				case w == setter:
					spare = s.Evict(addr[3*rng.Intn(keys/3)+w])
				case rng.Bool(0.2):
					s.Delete(addr[k])
					continue
				}
				n := 16 << rng.Intn(9) // 16 B … 4 KiB
				n += rng.Intn(n / 2)
				buf = stampedValue(buf, uint32(k), uint32(i), min(n, 4096))
				s.Put(addr[k], key[k], buf, spare)
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

	// Shrink every value past what its buffer fits, then delete
	// everything: each value moves to a buffer that fits it, intact, and
	// the accounting follows the live bytes down.
	var buf, dst []byte
	for _, n := range []int{1024, 64} {
		for k := range key {
			buf = stampedValue(buf, uint32(k), 0, n)
			s.Put(addr[k], key[k], buf, nil)
		}
		checkStore(t, s)
		if entries, bytes := s.Stats(); entries != keys || bytes != int64(keys*(len(key[0])+n)) {
			t.Fatalf("%d-byte values: %d entries, %d bytes", n, entries, bytes)
		}
		for k := range key {
			var ok bool
			if dst, ok = s.Get(addr[k], key[k], dst[:0]); !ok || len(dst) != n {
				t.Fatalf("%d-byte values: Get(%s) = %d bytes, found %v", n, key[k], len(dst), ok)
			}
			if err := verifyStamped(dst, uint32(k)); err != nil {
				t.Fatalf("%d-byte values: Get(%s): %v", n, key[k], err)
			}
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

// On a full store, a SET churn — every SET evicts the oldest entry and
// inserts a key that is not resident, as when the engine evicts — hands each
// victim's buffer to the new entry, whichever shards the two keys hash to:
// nothing is allocated. Keys are one byte long, so their
// strings are Go's static one-byte strings and any allocation counted is a
// value buffer.
func TestStoreSetChurnReusesVictimBuffers(t *testing.T) {
	const resident, keys = 64, 256
	s := newStore(4)
	val := make([]byte, 1024)
	var key [keys][]byte
	var addr [keys]uint64
	for i := range key {
		key[i] = []byte{byte(i)}
		addr[i] = hashKey(key[i])
	}
	var ring [resident]int // the resident keys, oldest at ring[head]
	var out []int          // the others
	for k := range key {
		if k < resident {
			ring[k] = k
			s.Put(addr[k], key[k], val, nil)
		} else {
			out = append(out, k)
		}
	}
	head := 0
	rng := xrand.New(7)
	turnover := func() {
		for n := 0; n < resident; n++ {
			j := rng.Intn(len(out))
			victim, k := ring[head], out[j]
			spare := s.Evict(addr[victim])
			s.Put(addr[k], key[k], val, spare)
			ring[head], out[j] = k, victim
			head = (head + 1) % resident
		}
	}
	for i := 0; i < 8; i++ {
		turnover() // the shards' maps reach their size
	}
	if allocs := testing.AllocsPerRun(16, turnover); allocs != 0 {
		t.Errorf("%v allocations per turnover of %d entries", allocs, resident)
	}
	checkStore(t, s)
	if entries, _ := s.Stats(); entries != resident {
		t.Fatalf("%d entries, want %d", entries, resident)
	}
}
