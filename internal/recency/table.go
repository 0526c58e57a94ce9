package recency

import "unsafe"

// Half is the element type of a Table's two halves.
type Half interface{ uint8 | uint16 }

// Table is a table of non-negative ids — lines, slots or core's partition
// codes — none above a bound fixed when it is made. Each entry is a low half
// of H, plus a high half of H only when the bound exceeds H's range: with
// 16-bit halves 2 bytes an entry where every id fits in 16 bits and 4 where
// one may not, with 8-bit halves 1 byte or 2. Both layouts run the same code;
// a nil high half reads as zero and takes no writes. A Table is a pair of
// slice headers, so copies share entries; its users pass it by pointer, which
// keeps the hot paths from copying both headers through the stack.
type Table[H Half] struct {
	lo, hi []H
}

// NewTable returns n zero entries able to hold every id up to max.
func NewTable[H Half](n int, max int32) Table[H] {
	return makeTable[H](int32(n), int32(n), max)
}

// makeTable is NewTable with room for c entries in each half.
func makeTable[H Half](n, c, max int32) Table[H] {
	//fslint:ignore allocfree cold: a constructor's, or a relayout's when an order's population has moved ×6/5 or ×½
	t := Table[H]{lo: make([]H, n, c)}
	if wide[H](max) {
		//fslint:ignore allocfree cold: the high half of the table above
		t.hi = make([]H, n, c)
	}
	return t
}

// wide reports whether ids up to max need a high half of H.
func wide[H Half](max int32) bool { return int64(max) > int64(^H(0)) }

// At returns entry i.
//
//fs:allocfree
func (t *Table[H]) At(i int32) (v int32) {
	// This form keeps At's inlining cost low enough for Index.Worst to
	// inline with it. unsafe.Sizeof([8]H{}) is H's width in bits, one
	// constant where 8*unsafe.Sizeof(H(0)) costs the inliner two more nodes.
	if v = int32(t.lo[i]); t.hi != nil {
		v |= int32(t.hi[i]) << unsafe.Sizeof([8]H{})
	}
	return v
}

// Put sets entry i to v, which must not exceed the table's bound.
//
//fs:allocfree
func (t *Table[H]) Put(i, v int32) {
	t.lo[i] = H(v)
	if t.hi != nil {
		t.hi[i] = H(v >> unsafe.Sizeof([8]H{}))
	}
}

// Len returns the number of entries.
func (t *Table[H]) Len() int { return len(t.lo) }

// Bytes returns the capacity of both halves in bytes.
func (t *Table[H]) Bytes() int {
	return int(unsafe.Sizeof(H(0))) * (cap(t.lo) + cap(t.hi))
}

// Matches reports whether t has the halves NewTable gives a table of ids up to
// max: a high half exactly when max exceeds H's range, as long as the low half.
func (t *Table[H]) Matches(max int32) bool {
	if t.hi == nil {
		return !wide[H](max)
	}
	return wide[H](max) && len(t.hi) == len(t.lo)
}

// split returns t's first n entries, capped at n, and the rest.
func (t *Table[H]) split(n int32) (head, rest Table[H]) {
	head.lo, rest.lo = t.lo[:n:n], t.lo[n:]
	if t.hi != nil {
		head.hi, rest.hi = t.hi[:n:n], t.hi[n:]
	}
	return head, rest
}

// copyTable copies src's entries into dst, which has the same halves.
func copyTable[H Half](dst, src *Table[H]) {
	copy(dst.lo, src.lo)
	copy(dst.hi, src.hi)
}

// at reports whether t is the non-empty stretch of all starting at off, in
// each half all has.
func (t *Table[H]) at(all *Table[H], off int) bool {
	if all.hi == nil {
		return t.hi == nil && at(t.lo, all.lo, off)
	}
	return at(t.lo, all.lo, off) && at(t.hi, all.hi, off)
}
