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
//   - Family: W members of H3 evaluated together, every member's index
//     packed into one table entry, so a zcache hashes an address once.
//   - FoldBits: simple XOR folding of a line address into an index, the
//     "XOR-based indexing" baseline.
//
// H3 is defined by its masks (h3Masks) — output bit i is the parity of key
// AND masks[i] — and evaluated from byte-sliced tables built from them once,
// at construction: the map is linear over GF(2), so the hash of a key is the
// XOR of the hashes of its eight bytes in place. An H3 keeps only its
// byte-sliced tables, and a Family one packed, nibble-sliced table whose
// lanes are its members' entries; the bit-serial parity loop is kept in this
// package's tests as the reference both are checked against (DESIGN.md §10).
//
// The rows are drawn one after another from the seed, so the function onto
// 2^a buckets is the low a bits of the function onto 2^b ≥ 2^a buckets from
// the same seed. One H3 can therefore index a banked array: its high bits
// pick the bank and its low bits the set within it (internal/shardcache).
package hashing

import (
	"math/bits"

	"fscache/internal/stats"
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
		fillSlice(h.tab[j][:], uint(8*j), func(k uint) uint32 { return uint32(column(masks, k)) })
	}
}

// column is the hash of the single-bit key 1<<k under masks: its column of
// the mask matrix.
func column(masks []uint64, k uint) uint64 {
	var col uint64
	for i, m := range masks {
		col |= m >> k & 1 << uint(i)
	}
	return col
}

// fillSlice fills t, one slice of a linear map's sliced tables, from the
// images unit(k) of the single-bit keys 1<<k: t[b] is the image of b << lo.
func fillSlice[E uint32 | uint64](t []E, lo uint, unit func(k uint) E) {
	for b := 1; b < len(t); b++ {
		if low := b & -b; low != b {
			t[b] = t[b^low] ^ t[low] // linearity
		} else {
			t[b] = unit(lo + uint(bits.TrailingZeros(uint(b))))
		}
	}
}

// Hash maps key to an index in [0, buckets).
func (h *H3) Hash(key uint64) uint64 {
	return uint64(h.tab[0][byte(key)] ^ h.tab[1][byte(key>>8)] ^ h.tab[2][byte(key>>16)] ^ h.tab[3][byte(key>>24)] ^
		h.tab[4][byte(key>>32)] ^ h.tab[5][byte(key>>40)] ^ h.tab[6][byte(key>>48)] ^ h.tab[7][key>>56])
}

// Family is n independent H3 functions onto [0, buckets), one per way of a
// zcache, evaluated together: each entry of its sliced tables packs every
// member's image into fixed-width lanes, 16 bits wide while buckets ≤ 2^16
// and 32 otherwise, over as many uint64 words as the lanes need. One table
// pass (Sum) hashes a key under every member: member w's index, exactly what
// the member's own NewH3 returns, is lane w mod L of word w / L, L = 64 /
// LaneBits(), counting lanes from the low bits.
//
// The tables are nibble-sliced: sixteen loads a word where an H3 makes
// eight, but 2 KB a word where byte slices would take 16 KB. A Z4 family
// onto 2^16 buckets or fewer is one word, so a pass makes 16 loads where
// four H3s make 32, from a table small enough to stay in L1 beside a walk's
// lines, and takes 30 KB less heap than the four 8 KB H3s.
type Family struct {
	// tabs[q][j][b] is word q of the packed hashes of b << 4j.
	tabs     [][16][16]uint64
	laneBits uint // 16 or 32
}

// NewFamily builds n independent H3 functions onto [0, buckets); member w is
// NewH3(xrand.Mix64(seed^(w+1)), buckets). buckets must be a power of two no
// larger than 2^32.
func NewFamily(seed uint64, n, buckets int) *Family {
	exp := log2(buckets, "Family buckets")
	if exp > 32 {
		panic("hashing: Family buckets must not exceed 2^32")
	}
	if n <= 0 {
		panic("hashing: a Family needs at least one member")
	}
	f := &Family{laneBits: 16}
	if exp > 16 {
		f.laneBits = 32
	}
	perWord := int(64 / f.laneBits)
	masks := make([][]uint64, n)
	for w := range masks {
		masks[w] = h3Masks(xrand.Mix64(seed^uint64(w+1)), exp)
	}
	f.tabs = make([][16][16]uint64, (n+perWord-1)/perWord)
	for q := range f.tabs {
		members := masks[q*perWord : min((q+1)*perWord, n)]
		unit := func(k uint) uint64 {
			var word uint64
			for i, m := range members {
				word |= column(m, k) << (uint(i) * f.laneBits)
			}
			return word
		}
		for j := range f.tabs[q] {
			fillSlice(f.tabs[q][j][:], uint(4*j), unit)
		}
	}
	return f
}

// Words is the length of the slice Sum fills.
func (f *Family) Words() int { return len(f.tabs) }

// LaneBits is the width of a lane of Sum's words: 16 or 32.
func (f *Family) LaneBits() uint { return f.laneBits }

// Sum is one table pass: it writes the packed hashes of key under every
// member into sum[:Words()]. The fscount build counts it as one H3
// evaluation, whatever the member count.
//
//fs:allocfree
func (f *Family) Sum(key uint64, sum []uint64) {
	stats.CountH3()
	sum = sum[:len(f.tabs)]
	for q := range f.tabs {
		t := &f.tabs[q]
		sum[q] = t[0][key&15] ^ t[1][key>>4&15] ^ t[2][key>>8&15] ^ t[3][key>>12&15] ^
			t[4][key>>16&15] ^ t[5][key>>20&15] ^ t[6][key>>24&15] ^ t[7][key>>28&15] ^
			t[8][key>>32&15] ^ t[9][key>>36&15] ^ t[10][key>>40&15] ^ t[11][key>>44&15] ^
			t[12][key>>48&15] ^ t[13][key>>52&15] ^ t[14][key>>56&15] ^ t[15][key>>60]
	}
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
