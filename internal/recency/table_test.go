package recency

import (
	"testing"
	"unsafe"
)

// A table takes a high half exactly when its bound outgrows one half, and
// both layouts give back every id up to the bound: 8-bit halves (core's
// partition codes) at bounds 255 and 256, 16-bit ones (line and slot ids) at
// 65,535 and 65,536.
func TestTableHalves(t *testing.T) {
	checkHalves[uint8](t, 1<<8)
	checkHalves[uint16](t, 1<<16)
}

// checkHalves checks tables of H at the bounds either side of span, the
// first id one half cannot hold.
func checkHalves[H Half](t *testing.T, span int32) {
	t.Helper()
	size := int(unsafe.Sizeof(H(0)))
	for _, c := range []struct {
		max, other int32
		halves     int
	}{{span - 1, span, 1}, {span, span - 1, 2}} {
		ids := []int32{0, 1, span - 1, c.max}
		tab := NewTable[H](len(ids), c.max)
		if got, want := tab.Bytes(), len(ids)*c.halves*size; got != want {
			t.Errorf("%d-byte halves, bound %d: %d bytes, want %d", size, c.max, got, want)
		}
		if !tab.Matches(c.max) || tab.Matches(c.other) {
			t.Errorf("%d-byte halves, bound %d: Matches(%d) = %v, Matches(%d) = %v",
				size, c.max, c.max, tab.Matches(c.max), c.other, tab.Matches(c.other))
		}
		for i, v := range ids {
			tab.Put(int32(i), v)
		}
		for i, v := range ids {
			if got := tab.At(int32(i)); got != v {
				t.Errorf("%d-byte halves, bound %d: entry %d reads %d, want %d", size, c.max, i, got, v)
			}
		}
	}
}
