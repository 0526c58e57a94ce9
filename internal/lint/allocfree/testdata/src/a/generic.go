package a

import "unsafe"

// Pair is a generic table shaped like recency.Table: a low and a high half
// of one unsigned element type.
type Pair[H uint8 | uint16] struct{ lo, hi []H }

//fs:allocfree
func (p *Pair[H]) Put(i int, v int32) {
	p.lo[i] = H(v)                          // ok: H's type set holds no interface, so nothing is boxed
	p.hi[i] = H(v >> unsafe.Sizeof([8]H{})) // ok: unsafe's builtins compute
}

// Grow is pulled into the verified set by its instantiated call in UsePair.
func (p *Pair[H]) Grow(n int) {
	p.lo = make([]H, n) // want `make allocates`
}

//fs:allocfree
func UsePair(p *Pair[uint8], q *Pair[uint16]) {
	p.Put(0, 1) // ok: resolves to the generic declaration, which is verified
	q.Put(0, 1)
	p.Grow(2)
}

//fs:allocfree
func BoxAny[T any](t T) any {
	return t // want `value of type T is boxed into an interface`
}
