package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/shardcache"
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

// newTestStore builds a store over a fresh one-partition engine of lines
// lines, ways ways and stripes lock stripes.
func newTestStore(lines, ways, stripes int) *store {
	e := shardcache.New(shardcache.Config{
		Lines: lines, Ways: ways, Stripes: stripes, Parts: 1,
		Ranking: futility.CoarseLRU, Seed: 1,
	})
	e.SetTargets([]int{lines})
	return newStore(e)
}

// get is a GET as the server performs one for tenant 0, in one critical
// section of the stripe addr routes to: the store read and, when it finds
// the bytes, the engine access.
func get(s *store, addr uint64, key, dst []byte) ([]byte, bool) {
	h := s.eng.Lock(addr)
	defer h.Unlock()
	return s.Get(h, addr, 0, key, dst, false)
}

// set is a SET as the server performs one, in one critical section of the
// stripe addr routes to.
func set(s *store, addr uint64, part int, key, val []byte) core.AccessResult {
	h := s.eng.Lock(addr)
	defer h.Unlock()
	return s.Set(h, addr, part, key, val)
}

// del is a DEL as the server performs one, in one critical section of the
// stripe addr routes to.
func del(s *store, addr uint64) bool {
	h := s.eng.Lock(addr)
	defer h.Unlock()
	return s.Delete(h, addr)
}

// CheckInvariants audits the store one stripe lock at a time: every
// non-empty line is a line whose engine line holds the address of its key.
// Every store operation keeps that, so it may run while other goroutines use
// the store.
func (s *store) CheckInvariants() error {
	for g, lines := range s.stripes {
		h := s.eng.LockStripe(g)
		err := audit(h, lines)
		h.Unlock()
		if err != nil {
			return fmt.Errorf("server: store stripe %d: %w", g, err)
		}
	}
	return nil
}

// audit is CheckInvariants for lines, the stripe h holds.
func audit(h shardcache.Locked, lines []entry) error {
	for l, e := range lines {
		if len(e.key) == 0 {
			continue
		}
		if el := h.Lookup(hashKey(e.key)); el != l {
			return fmt.Errorf("line %d holds %q, whose address the engine holds at line %d", l, e.key, el)
		}
	}
	return nil
}

// checkStore audits the store (store.CheckInvariants) and checks that every
// stored key and value fits its buffer (Set's rule).
func checkStore(t *testing.T, s *store) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	for g, lines := range s.stripes {
		h := s.eng.LockStripe(g)
		for i, e := range lines {
			if k, v := e.key, e.val; len(k) > 0 && (!fits(k, len(k)) || !fits(v, len(v))) {
				t.Errorf("stripe %d line %d: %d-byte key in %d bytes, %d-byte value in %d bytes",
					g, i, len(k), cap(k), len(v), cap(v))
			}
		}
		h.Unlock()
	}
}

// storedKeys returns the id of every key the store holds.
func storedKeys(s *store, ids map[string]int) []int {
	var stored []int
	for g, lines := range s.stripes {
		h := s.eng.LockStripe(g)
		for _, e := range lines {
			if len(e.key) > 0 {
				stored = append(stored, ids[string(e.key)])
			}
		}
		h.Unlock()
	}
	return stored
}

// TestStoreRecyclesWithoutAliasing is the store's ownership contract under
// -race: while writers SET and delete through an engine smaller than their
// keys — so most SETs land on a victim's line and take over its buffers,
// which are rewritten in place when the new value fits and replaced when it
// does not — a reader's GET only ever gets an intact value of the key it
// asked for, and the accounting holds throughout.
func TestStoreRecyclesWithoutAliasing(t *testing.T) {
	const keys = 96
	s := newTestStore(64, 4, 4)
	var key [keys][]byte
	var addr [keys]uint64
	ids := map[string]int{}
	for i := range key {
		key[i] = []byte(fmt.Sprintf("stamped-%03d", i))
		addr[i] = hashKey(key[i])
		ids[string(key[i])] = i
	}
	rounds := 40000
	if testing.Short() {
		rounds = 8000
	}

	const writers = 3
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			rng := xrand.New(uint64(100 + w))
			var buf []byte
			for i := 0; i < rounds; i++ {
				// Writer w owns the keys ≡ w (mod 3), so versions per key
				// are its own; lines and their buffers are everyone's.
				k := writers*rng.Intn(keys/writers) + w
				if w > 0 && rng.Bool(0.2) {
					del(s, addr[k])
					continue
				}
				n := 16 << rng.Intn(9) // 16 B … 4 KiB
				n += rng.Intn(n / 2)
				buf = stampedValue(buf, uint32(k), uint32(i), min(n, 4096))
				set(s, addr[k], 0, key[k], buf)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
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
				if dst, ok = get(s, addr[k], key[k], dst[:0]); ok {
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
	writing.Wait()
	close(stop)
	reading.Wait()
	checkStore(t, s)

	// Shrink every stored value past what its buffer fits, then delete
	// everything: each value moves to a buffer that fits it, intact, and
	// the accounting follows the live bytes down.
	stored := storedKeys(s, ids)
	if len(stored) == 0 {
		t.Fatal("the churn left the store empty")
	}
	var buf, dst []byte
	for _, n := range []int{1024, 64} {
		for _, k := range stored {
			buf = stampedValue(buf, uint32(k), 0, n)
			if !set(s, addr[k], 0, key[k], buf).Hit {
				t.Fatalf("stored key %d not resident", k)
			}
		}
		checkStore(t, s)
		if entries, bytes := s.Stats(); entries != len(stored) || bytes != int64(len(stored)*(len(key[0])+n)) {
			t.Fatalf("%d-byte values: %d entries, %d bytes", n, entries, bytes)
		}
		for _, k := range stored {
			var ok bool
			if dst, ok = get(s, addr[k], key[k], dst[:0]); !ok || len(dst) != n {
				t.Fatalf("%d-byte values: Get(%s) = %d bytes, found %v", n, key[k], len(dst), ok)
			}
			if err := verifyStamped(dst, uint32(k)); err != nil {
				t.Fatalf("%d-byte values: Get(%s): %v", n, key[k], err)
			}
		}
	}
	for _, k := range stored {
		if !del(s, addr[k]) {
			t.Fatalf("key %d missing", k)
		}
		checkStore(t, s)
	}
	if entries, bytes := s.Stats(); entries != 0 || bytes != 0 {
		t.Fatalf("emptied store reports %d entries, %d bytes", entries, bytes)
	}
}

// TestStoreSharedSets runs the server's three store paths from eight
// goroutines over four sets under -race: SETs (the engine access and the
// write at the line it reports), GETs (the lookup, the engine access and the
// copy) and DELs, each in one critical section, all on keys every goroutine
// shares, with values of many sizes. A GET only ever returns an intact value
// of the key it asked for, and the store stays consistent with the engine
// throughout.
func TestStoreSharedSets(t *testing.T) {
	const keys, goroutines = 64, 8
	s := newTestStore(32, 8, 2)
	var key [keys][]byte
	var addr [keys]uint64
	for i := range key {
		key[i] = []byte(fmt.Sprintf("shared-key-%05d", i))
		addr[i] = hashKey(key[i])
	}
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.New(uint64(300 + w))
			var buf, dst []byte
			for i := 0; i < rounds; i++ {
				k := rng.Intn(keys)
				switch p := rng.Float64(); {
				case p < 0.4:
					n := 16 + rng.Intn(8)*rng.Intn(64)
					buf = stampedValue(buf, uint32(k), uint32(w<<24|i), n)
					set(s, addr[k], 0, key[k], buf)
				case p < 0.85:
					var ok bool
					if dst, ok = get(s, addr[k], key[k], dst[:0]); !ok {
						continue
					}
					if err := verifyStamped(dst, uint32(k)); err != nil {
						t.Errorf("Get(%s): %v", key[k], err)
						return
					}
				default:
					del(s, addr[k])
				}
				if w == 0 && i%256 == 0 {
					checkStore(t, s)
				}
			}
		}()
	}
	wg.Wait()
	checkStore(t, s)
	if entries, _ := s.Stats(); entries == 0 || entries > 32 {
		t.Fatalf("store holds %d entries for 32 lines", entries)
	}
}

// On a full store, a SET churn — every SET is of a key that is not
// resident, so the engine evicts and the key lands on its victim's line —
// reuses the victim's key and value buffers: nothing is allocated. Keys are
// 16 bytes long, the wire key length of the benchmark's load, so a key copy
// made for each new entry would be counted.
func TestStoreSetChurnReusesVictimBuffers(t *testing.T) {
	const lines, keys = 64, 256
	s := newTestStore(lines, 4, 4)
	val := make([]byte, 1024)
	var key [keys][]byte
	var addr [keys]uint64
	for i := range key {
		key[i] = []byte(fmt.Sprintf("churn-key-%06d", i))
		addr[i] = hashKey(key[i])
	}
	next, evictions := 0, 0
	turnover := func() {
		for n := 0; n < lines; n++ {
			k := next % keys
			next++
			if set(s, addr[k], 0, key[k], val).Evicted {
				evictions++
			}
		}
	}
	for i := 0; i < 8; i++ {
		turnover() // every line fills
	}
	sets, evicted := next, evictions
	if allocs := testing.AllocsPerRun(16, turnover); allocs != 0 {
		t.Errorf("%v allocations per turnover of %d lines", allocs, lines)
	}
	if sets, evicted = next-sets, evictions-evicted; evicted != sets {
		t.Fatalf("%d of %d SETs evicted, want all", evicted, sets)
	}
	checkStore(t, s)
	if entries, _ := s.Stats(); entries != lines {
		t.Fatalf("%d entries, want %d", entries, lines)
	}
}
