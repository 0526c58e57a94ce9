package recency

// Table is a table of non-negative ids — lines or slots — none above a bound
// fixed when it is made. Each entry is a 16-bit low half, plus a 16-bit high
// half only when the bound reaches 2^16: 2 bytes an entry where every id fits
// in 16 bits, 4 where one may not. Both layouts run the same code; a nil high
// half reads as zero and takes no writes. A Table is a pair of slice headers,
// so copies share entries; its users pass it by pointer, which keeps the hot
// paths from copying both headers through the stack.
type Table struct {
	lo, hi []uint16
}

// NewTable returns n zero entries able to hold every id up to max.
func NewTable(n int, max int32) Table { return makeTable(int32(n), int32(n), max) }

// makeTable is NewTable with room for c entries in each half.
func makeTable(n, c, max int32) Table {
	//fslint:ignore allocfree cold: a constructor's, or a relayout's when an order's population has moved ×6/5 or ×½
	t := Table{lo: make([]uint16, n, c)}
	if wide(max) {
		//fslint:ignore allocfree cold: the high half of the table above
		t.hi = make([]uint16, n, c)
	}
	return t
}

// wide reports whether ids up to max need a high half.
func wide(max int32) bool { return max >= 1<<16 }

// At returns entry i.
//
//fs:allocfree
func (t *Table) At(i int32) (v int32) {
	// This form keeps At's inlining cost low enough for Index.Worst to
	// inline with it.
	if v = int32(t.lo[i]); t.hi != nil {
		v |= int32(t.hi[i]) << 16
	}
	return v
}

// Put sets entry i to v, which must not exceed the table's bound.
//
//fs:allocfree
func (t *Table) Put(i, v int32) {
	t.lo[i] = uint16(v)
	if t.hi != nil {
		t.hi[i] = uint16(v >> 16)
	}
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.lo) }

// Bytes returns the capacity of both halves in bytes.
func (t *Table) Bytes() int { return 2 * (cap(t.lo) + cap(t.hi)) }

// Matches reports whether t has the halves NewTable gives a table of ids up to
// max: a high half exactly when max reaches 2^16, as long as the low half.
func (t *Table) Matches(max int32) bool {
	if t.hi == nil {
		return !wide(max)
	}
	return wide(max) && len(t.hi) == len(t.lo)
}

// split returns t's first n entries, capped at n, and the rest.
func (t *Table) split(n int32) (head, rest Table) {
	head.lo, rest.lo = t.lo[:n:n], t.lo[n:]
	if t.hi != nil {
		head.hi, rest.hi = t.hi[:n:n], t.hi[n:]
	}
	return head, rest
}

// copyTable copies src's entries into dst, which has the same halves.
func copyTable(dst, src *Table) {
	copy(dst.lo, src.lo)
	copy(dst.hi, src.hi)
}

// at reports whether t is the non-empty stretch of all starting at off, in
// each half all has.
func (t *Table) at(all *Table, off int) bool {
	if all.hi == nil {
		return t.hi == nil && at(t.lo, all.lo, off)
	}
	return at(t.lo, all.lo, off) && at(t.hi, all.hi, off)
}
