// Package hashing provides the hash functions used to index cache arrays.
//
// The paper's analysis assumes caches "indexed by good random hash functions"
// (§III-B, §IV-A); its evaluated L2 uses XOR-based indexing [19] and its
// analytical cache uses uniform random candidates. A zcache (and the
// skew-associative array, its one-level walk) additionally needs a *family*
// of independent hash functions, one per way. We provide:
//
//   - H3: the classic universal hash family over GF(2) (matrix of random
//     row masks), as used by the zcache work the paper builds on.
//   - FoldBits: simple XOR folding of a line address into an index, the
//     "XOR-based indexing" baseline.
//
// H3 is defined by its masks (h3Masks) — output bit i is the parity of key
// AND masks[i] — and evaluated from byte-sliced tables built from them once,
// at construction: the map is linear over GF(2), so the hash of a key is the
// XOR of the hashes of its eight bytes in place. A function keeps only the
// tables; the bit-serial parity loop is kept in this package's tests as the
// reference the tables are checked against (DESIGN.md §10).
//
// The rows are drawn one after another from the seed, so the function onto
// 2^a buckets is the low a bits of the function onto 2^b ≥ 2^a buckets from
// the same seed. One H3 can therefore index a banked array: its high bits
// pick the bank and its low bits the set within it (internal/shardcache).
package hashing

import (
	"math/bits"

	"fscache/internal/xrand"
)

// H3 is one member of the H3 universal hash family mapping 64-bit keys to
// indices in [0, buckets). Each output bit is the parity of the key ANDed
// with a random mask, which makes any two distinct keys collide with
// probability 1/buckets over the random choice of masks.
//
// The struct is the tables and nothing else: 8 KB, which the allocator hands
// out without rounding, live for as long as the function is.
type H3 struct {
	// tab[j][b] is the hash of the key whose byte j is b and whose other
	// bytes are zero.
	tab [8][256]uint32
}

// NewH3 builds an H3 hash onto [0, buckets) seeded by seed.
// buckets must be a power of two, at least 1 and at most 2^32 (the width of
// a table entry).
func NewH3(seed uint64, buckets int) *H3 {
	h := new(H3)
	h.init(seed, buckets)
	return h
}

// h3Masks draws the definition of the function NewH3(seed, 1<<n) builds: one
// row mask per output bit.
func h3Masks(seed uint64, n uint) []uint64 {
	return independentRows(n, xrand.New(seed).Uint64)
}

// independentRows draws n row masks from next, redrawing any row in the span
// of the rows before it. A zero row would pin its output bit and a dependent
// one make it the XOR of earlier bits; either way fewer than n bits would vary
// and some buckets would never be hit. Each row depends only on the draws
// before it, so the rows of a shorter function are a prefix of a longer one's.
func independentRows(n uint, next func() uint64) []uint64 {
	rows := make([]uint64, n)
	var basis [64]uint64
	for i := range rows {
		rows[i] = next()
		for !extend(&basis, rows[i]) {
			rows[i] = next()
		}
	}
	return rows
}

// extend reduces r against basis, where basis[p] is zero or a vector whose
// highest set bit is p (GF(2) elimination). It adds what is left and reports
// true, or reports false when r lies in the span of basis, zero included.
func extend(basis *[64]uint64, r uint64) bool {
	for r != 0 {
		p := 63 - bits.LeadingZeros64(r)
		if basis[p] == 0 {
			basis[p] = r
			return true
		}
		r ^= basis[p]
	}
	return false
}

func (h *H3) init(seed uint64, buckets int) {
	n := log2(buckets, "H3 buckets")
	if n > 32 {
		panic("hashing: H3 buckets must not exceed 2^32")
	}
	masks := h3Masks(seed, n)
	for j := range h.tab {
		t := &h.tab[j]
		for b := 1; b < len(t); b++ {
			low := b & -b
			if low != b {
				t[b] = t[b^low] ^ t[low] // linearity
				continue
			}
			// A single key bit hashes to its column of the mask matrix.
			k := uint(8*j + bits.TrailingZeros(uint(b)))
			var col uint32
			for i, m := range masks {
				col |= uint32(m>>k&1) << uint(i)
			}
			t[b] = col
		}
	}
}

// Hash maps key to an index in [0, buckets).
func (h *H3) Hash(key uint64) uint64 {
	return uint64(h.tab[0][byte(key)] ^ h.tab[1][byte(key>>8)] ^ h.tab[2][byte(key>>16)] ^ h.tab[3][byte(key>>24)] ^
		h.tab[4][byte(key>>32)] ^ h.tab[5][byte(key>>40)] ^ h.tab[6][byte(key>>48)] ^ h.tab[7][key>>56])
}

// NewFamily builds n independent H3 functions onto [0, buckets), one per
// way of a zcache, back to back in one allocation.
func NewFamily(seed uint64, n, buckets int) []H3 {
	fns := make([]H3, n)
	for i := range fns {
		fns[i].init(xrand.Mix64(seed^uint64(i+1)), buckets)
	}
	return fns
}

// log2 returns the exponent of n, which must be a positive power of two;
// what names the argument in the panic otherwise.
func log2(n int, what string) uint {
	if n <= 0 || n&(n-1) != 0 {
		panic("hashing: " + what + " must be a positive power of two")
	}
	return uint(bits.TrailingZeros(uint(n)))
}

// FoldBits XOR-folds a 64-bit line address into [0, 1<<width). This models
// conventional XOR-based set indexing: cheap, and good enough to spread
// strided access patterns across sets.
func FoldBits(key uint64, width uint) uint64 {
	if width == 0 {
		return 0
	}
	var out uint64
	for key != 0 {
		out ^= key & (1<<width - 1)
		key >>= width
	}
	return out
}

// ShardShift returns the shift that takes a set index to its shard when
// `sets` sets are split across `shards` shards (both powers of two, shards ≤
// sets): the shard is the top log2(shards) bits of the index, i >>
// ShardShift(sets, shards), so contiguous equal-sized runs of set indices
// land on the same shard. This is how internal/shardcache carves one logical
// set-associative array into independent sub-arrays of sets/shards sets each.
func ShardShift(sets, shards int) uint {
	all, top := log2(sets, "ShardShift sets"), log2(shards, "ShardShift shards")
	if top > all {
		panic("hashing: ShardShift shards must be no larger than sets")
	}
	return all - top
}
