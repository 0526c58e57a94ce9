// Package a exercises style's tswrap rule: raw arithmetic on marked
// wrap-around timestamp fields is flagged; the wrapsafe helper is not.
package a

type clock struct {
	cur  uint8   // partition clock //fslint:wrap8
	tags []uint8 // per-line tags //fslint:wrap8
	raw  uint8   // unmarked: ordinary byte, not a timestamp
}

// dist is the one sanctioned mod-256 distance computation.
//
//fslint:wrapsafe
func dist(cur, tag uint8) uint8 { return cur - tag }

//fslint:wrapsafe
func (c *clock) distAt(i int) uint8 { return c.cur - c.tags[i] } // clean: wrapsafe helper

func (c *clock) uses(i int) {
	_ = c.cur - c.tags[i]         // want `raw - on 8-bit wrapping timestamp`
	_ = c.cur < c.tags[i]         // want `raw < on 8-bit wrapping timestamp`
	_ = c.tags[i] > c.cur         // want `raw > on 8-bit wrapping timestamp`
	_ = c.cur <= c.tags[i]        // want `raw <= on 8-bit wrapping timestamp`
	_ = c.tags[i] >= c.cur        // want `raw >= on 8-bit wrapping timestamp`
	_ = uint64(c.cur - c.tags[i]) // want `raw - on 8-bit wrapping timestamp`

	_ = c.raw - 1              // clean: unmarked field
	_ = dist(c.cur, c.tags[i]) // clean: helper call
	_ = c.distAt(i)            // clean
	c.cur++                    // clean: increments wrap correctly by themselves
	c.tags[i] = c.cur          // clean: plain tagging assignment
	_ = c.cur == c.tags[i]     // clean: equality is wrap-safe
}
