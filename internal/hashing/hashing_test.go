package hashing

import (
	"fmt"
	"testing"
	"unsafe"

	"fscache/internal/xrand"
)

func TestH3Range(t *testing.T) {
	h := NewH3(1, 256)
	rng := xrand.New(2)
	for i := 0; i < 10000; i++ {
		v := h.Hash(rng.Uint64())
		if v >= 256 {
			t.Fatalf("Hash out of range: %d", v)
		}
	}
}

func TestH3Deterministic(t *testing.T) {
	a, b := NewH3(7, 1024), NewH3(7, 1024)
	for i := uint64(0); i < 1000; i++ {
		if a.Hash(i) != b.Hash(i) {
			t.Fatalf("same seed differs at key %d", i)
		}
	}
}

// The analytical framework assumes hashed indices are close to uniform even
// for adversarial (sequential, strided) key patterns — this is exactly why
// the paper requires "good hash functions" (§III-B). Verify with chi-squared.
func TestH3UniformOnSequentialKeys(t *testing.T) {
	h := NewH3(11, 64)
	const n = 64 * 2000
	var counts [64]int
	for i := uint64(0); i < n; i++ {
		counts[h.Hash(i)]++
	}
	checkChi2(t, counts[:], n, "sequential")
}

func TestH3UniformOnStridedKeys(t *testing.T) {
	h := NewH3(13, 64)
	const n = 64 * 2000
	var counts [64]int
	for i := uint64(0); i < n; i++ {
		counts[h.Hash(i*4096)]++ // page-strided addresses, the classic bad case
	}
	checkChi2(t, counts[:], n, "strided")
}

func checkChi2(t *testing.T, counts []int, n int, label string) {
	t.Helper()
	expected := float64(n) / float64(len(counts))
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 dof: 99.9th percentile ~103.4. Allow generous headroom.
	if chi2 > 110 {
		t.Fatalf("%s keys: chi-squared = %.1f, hash is non-uniform", label, chi2)
	}
}

func TestH3Linearity(t *testing.T) {
	// H3 is linear over GF(2): h(a^b) == h(a)^h(b). This property is what
	// makes the family analyzable; verify our implementation has it.
	h := NewH3(17, 512)
	rng := xrand.New(3)
	for i := 0; i < 1000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if h.Hash(a^b) != h.Hash(a)^h.Hash(b) {
			t.Fatalf("linearity violated for %#x, %#x", a, b)
		}
	}
}

// bitSerial is H3 as it is defined: output bit i is the parity of the key
// ANDed with masks[i]. It is the reference Hash's tables are checked against.
func bitSerial(masks []uint64, key uint64) uint64 {
	var out uint64
	for i, m := range masks {
		out |= parity(key&m) << uint(i)
	}
	return out
}

// lane is member w's index in sum, a Sum of f: the whole lane, so that bits
// of the lane above the index must be clear for it to match.
func lane(f *Family, sum []uint64, w int) uint64 {
	per := int(64 / f.LaneBits())
	return sum[w/per] >> (uint(w%per) * f.LaneBits()) & (1<<f.LaneBits() - 1)
}

// parity returns the XOR of all bits of x (0 or 1).
func parity(x uint64) uint64 {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}

// The 64 single-bit keys are a basis of the key space, so agreement on them
// plus linearity (TestH3Linearity) is agreement on every key; the random
// keys check the same thing without the argument.
func TestH3TableMatchesBitSerial(t *testing.T) {
	rng := xrand.New(23)
	// check holds hash, a function built from seed onto 2^exp buckets, to
	// the definition.
	check := func(hash func(uint64) uint64, seed uint64, exp uint, label string, keys int) {
		t.Helper()
		masks := h3Masks(seed, exp)
		if len(masks) != int(exp) {
			t.Fatalf("%s: %d masks", label, len(masks))
		}
		one := func(k uint64) {
			t.Helper()
			if got, want := hash(k), bitSerial(masks, k); got != want {
				t.Fatalf("%s: Hash(%#x) = %#x, bit-serial %#x", label, k, got, want)
			}
		}
		one(0)
		for b := uint(0); b < 64; b++ {
			one(1 << b)
		}
		for i := 0; i < keys; i++ {
			one(rng.Uint64())
		}
	}
	for exp := uint(0); exp <= 20; exp++ {
		for _, seed := range []uint64{0, 1, 0xa77a, ^uint64(0)} {
			check(NewH3(seed, 1<<exp).Hash, seed, exp, fmt.Sprintf("buckets 2^%d seed %#x", exp, seed), 25000)
		}
	}
	// Lane w of a family is the function NewH3 builds from member w's seed,
	// in 16-bit lanes up to 2^16 buckets and 32-bit ones past it, over one
	// word or several.
	for _, n := range []int{1, 2, 4, 8, 16} {
		for _, exp := range []uint{0, 12, 16, 17, 32} {
			f := NewFamily(5, n, 1<<exp)
			sum := make([]uint64, f.Words())
			for w := 0; w < n; w++ {
				member := func(k uint64) uint64 { f.Sum(k, sum); return lane(f, sum, w) }
				check(member, xrand.Mix64(5^uint64(w+1)), exp, fmt.Sprintf("family of %d onto 2^%d, member %d", n, exp, w), 1000)
			}
		}
	}
	if unsafe.Sizeof(H3{}) != 8192 {
		t.Fatalf("H3 is %d bytes: past 8192 the allocator rounds every function up a size class", unsafe.Sizeof(H3{}))
	}
	// Four members onto at most 2^16 buckets share one 2 KB word table.
	for _, c := range []struct{ n, buckets, words int }{{4, 1 << 16, 1}, {4, 1 << 17, 2}, {16, 1 << 12, 4}, {1, 1 << 32, 1}} {
		f := NewFamily(5, c.n, c.buckets)
		if f.Words() != c.words || unsafe.Sizeof(f.tabs[0]) != 2048 {
			t.Fatalf("family of %d onto %d buckets: %d words of %d bytes, want %d of 2048", c.n, c.buckets, f.Words(), unsafe.Sizeof(f.tabs[0]), c.words)
		}
	}
}

// The function onto 2^a buckets is the low a bits of the function onto 2^b ≥
// 2^a buckets from the same seed, because the rows are drawn in order.
// internal/shardcache takes a stripe's sets from the low bits of the router
// that picked the stripe from the high ones, and relies on this to place every
// address where one array of the whole engine's sets would.
func TestH3PrefixProperty(t *testing.T) {
	rng := xrand.New(29)
	for _, seed := range []uint64{0, 1, 0xa77a, ^uint64(0)} {
		all := h3Masks(seed, 32)
		long := NewH3(seed, 1<<20)
		for a := uint(0); a <= 20; a++ {
			for i, m := range h3Masks(seed, a) {
				if m != all[i] {
					t.Fatalf("seed %#x: row %d of the 2^%d-bucket function is %#x, of the 2^32-bucket one %#x", seed, i, a, m, all[i])
				}
			}
			short := NewH3(seed, 1<<a)
			for i := 0; i < 2000; i++ {
				k := rng.Uint64()
				if got, want := short.Hash(k), long.Hash(k)&(1<<a-1); got != want {
					t.Fatalf("seed %#x key %#x: onto 2^%d buckets %#x, low bits of onto 2^20 %#x", seed, k, a, got, want)
				}
			}
		}
	}
}

// rank is the GF(2) rank of rows, by elimination on each pivot's lowest set
// bit (the package eliminates on the highest).
func rank(rows []uint64) int {
	rows = append([]uint64(nil), rows...)
	r := 0
	for i, p := range rows {
		if p == 0 {
			continue
		}
		for j := i + 1; j < len(rows); j++ {
			if rows[j]&(p&-p) != 0 {
				rows[j] ^= p
			}
		}
		r++
	}
	return r
}

// Every row is outside the span of the rows before it, so the n output bits
// are independent and every bucket is the hash of some key. A draw that is
// zero, repeats a row or is the XOR of accepted rows is redrawn.
func TestH3RowsIndependent(t *testing.T) {
	for seed := uint64(0); seed < 256; seed++ {
		if r := rank(h3Masks(seed, 32)); r != 32 {
			t.Fatalf("seed %d: 32 rows of rank %d", seed, r)
		}
	}
	a, b, c := uint64(0b0011), uint64(0b0101), uint64(1)<<63
	script := []uint64{0, a, a, b, a ^ b, 0, b, c}
	drawn := 0
	got := independentRows(3, func() uint64 { drawn++; return script[drawn-1] })
	if want := []uint64{a, b, c}; fmt.Sprint(got) != fmt.Sprint(want) || drawn != len(script) {
		t.Fatalf("rows %v after %d draws, want %v after %d", got, drawn, want, len(script))
	}
	if r := rank(script); r != 3 {
		t.Fatalf("rank of the script is %d, want 3", r)
	}
}

// FuzzH3 holds NewH3 and every lane of a family of 1, 2, 4, 8 or 16
// members (chosen by exp's high part) to the bit-serial definition.
func FuzzH3(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint64(0))
	f.Add(uint64(1), uint8(12), uint64(0x9e3779b97f4a7c15))
	f.Add(^uint64(0), uint8(32), ^uint64(0))
	f.Add(uint64(7), uint8(4*21+17), uint64(0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, seed uint64, exp uint8, key uint64) {
		n := uint(exp % 21)
		got := NewH3(seed, 1<<n).Hash(key)
		if want := bitSerial(h3Masks(seed, n), key); got != want {
			t.Fatalf("seed %#x buckets 2^%d: Hash(%#x) = %#x, bit-serial %#x", seed, n, key, got, want)
		}
		if got >= 1<<n {
			t.Fatalf("Hash(%#x) = %d out of [0, 2^%d)", key, got, n)
		}
		ways := 1 << (exp / 21 % 5)
		fam := NewFamily(seed, ways, 1<<n)
		sum := make([]uint64, fam.Words())
		fam.Sum(key, sum)
		for w := 0; w < ways; w++ {
			if got, want := lane(fam, sum, w), bitSerial(h3Masks(xrand.Mix64(seed^uint64(w+1)), n), key); got != want {
				t.Fatalf("seed %#x family of %d onto 2^%d: lane %d of %#x = %#x, bit-serial %#x", seed, ways, n, w, key, got, want)
			}
		}
	})
}

func TestFamilyIndependence(t *testing.T) {
	f := NewFamily(5, 4, 256)
	sum := make([]uint64, f.Words())
	// Different members must disagree on most keys; identical members would
	// make a zcache degenerate to set-associative.
	rng := xrand.New(9)
	agree := 0
	const n = 10000
	for i := 0; i < n; i++ {
		f.Sum(rng.Uint64(), sum)
		if lane(f, sum, 0) == lane(f, sum, 1) {
			agree++
		}
	}
	// Expected agreement 1/256 ≈ 39 of 10000.
	if agree > 120 {
		t.Fatalf("family members agree on %d/%d keys", agree, n)
	}
}

// tooManyBuckets is 2^33 where int holds it: one past the width of a table
// entry (and 0, as invalid, where it does not).
var tooManyBuckets = func() int { n := 1; return n << 33 }()

func TestBadBucketsPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewH3(1, 0) },
		func() { NewH3(1, 3) },
		func() { NewH3(1, tooManyBuckets) },
		func() { NewFamily(1, 4, 3) },
		func() { NewFamily(1, 4, tooManyBuckets) },
		func() { NewFamily(1, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid buckets did not panic")
				}
			}()
			fn()
		}()
	}
}

// The shard of a set index is its top bit-slice, i >> ShardShift(sets, shards).
func TestShardOf(t *testing.T) {
	// 16 sets over 4 shards: the shard is the top two bits, so contiguous
	// runs of 4 set indices share a shard.
	for idx := uint64(0); idx < 16; idx++ {
		if got, want := idx>>ShardShift(16, 4), idx/4; got != want {
			t.Fatalf("set %d of 16 over 4 shards: shard %d, want %d", idx, got, want)
		}
	}
	// Degenerate splits: one shard maps everything to 0; shards == sets is
	// the identity.
	if ShardShift(8, 1) != 3 || ShardShift(8, 8) != 0 {
		t.Fatalf("ShardShift(8, 1) = %d, ShardShift(8, 8) = %d; want 3 and 0", ShardShift(8, 1), ShardShift(8, 8))
	}
	// Every shard receives exactly sets/shards indices.
	counts := make([]int, 8)
	for idx := uint64(0); idx < 64; idx++ {
		counts[idx>>ShardShift(64, 8)]++
	}
	for s, c := range counts {
		if c != 8 {
			t.Fatalf("shard %d received %d sets, want 8", s, c)
		}
	}
	for _, fn := range []func(){
		func() { ShardShift(12, 4) }, // sets not a power of two
		func() { ShardShift(16, 3) }, // shards not a power of two
		func() { ShardShift(4, 8) },  // more shards than sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid ShardShift arguments did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestH3SingleBucket(t *testing.T) {
	h := NewH3(1, 1)
	for i := uint64(0); i < 100; i++ {
		if h.Hash(i) != 0 {
			t.Fatal("single-bucket hash must return 0")
		}
	}
}
