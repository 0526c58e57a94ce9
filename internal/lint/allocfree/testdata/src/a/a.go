// Package a exercises the allocfree analyzer's construct checks: the
// call-graph walk, caller-owned append contracts, trusted interface and
// func-field boundaries, and every flagged allocation form.
package a

// I is a ranker-style boundary: Fast is a trusted contract, Slow is not.
type I interface {
	//fs:allocfree
	Fast(x int) int
	Slow() string
}

// C mirrors the shape of core.Cache: scratch buffers plus installed hooks.
type C struct {
	buf   []int
	iface I
	//fs:allocfree
	fn  func(int) int
	fn2 func(int) int
}

//fs:allocfree
func (c *C) Hot(x int) int {
	m := make([]int, x) // want `make allocates`
	_ = m
	p := new(int) // want `new allocates`
	_ = p
	c.buf = append(c.buf, x) // ok: receiver-owned scratch buffer
	s := c.buf[:0]
	s = append(s, x) // ok: derived from receiver-owned memory
	var g []int
	g = append(g, x) // want `append may grow a buffer this function does not own`
	_ = g
	return helper(x) + c.iface.Fast(x) + c.fn(x)
}

//fs:allocfree
func (c *C) Bad(x int) string {
	_ = c.iface.Slow() // want `call through interface method \(a\.I\)\.Slow, which lacks //fs:allocfree`
	_ = c.fn2(x)       // want `call through func-typed field a\.C\.fn2, which lacks //fs:allocfree`
	prefix := "x"
	return prefix + "y" // want `string concatenation allocates`
}

// helper is not annotated itself: it is pulled into the verified set by
// the call in Hot.
func helper(x int) int {
	v := []int{x} // want `slice literal allocates`
	return v[0]
}

// Cold is never reached from an annotated root: nothing in it is flagged.
func Cold(x int) []int {
	return append([]int{}, x)
}

// panicRange is a cold guard helper: exempt by naming convention even
// though Hot2 reaches it.
func panicRange(x int) {
	panic("bad: " + string(rune(x)))
}

//fs:allocfree
func (c *C) Hot2(x int) int {
	if x < 0 {
		panicRange(x)
	}
	if x > 1<<30 {
		panic("a: out of range") // ok: panic arguments are cold
	}
	return x
}
