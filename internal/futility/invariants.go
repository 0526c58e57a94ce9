package futility

import (
	"fmt"
	"math"

	"fscache/internal/ost"
)

// feqBits is bit-exact float64 equality: the invariants below assert cached
// values are the very float the live state would produce, not merely close.
func feqBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// InvariantChecker is implemented by rankers that can audit their internal
// consistency on demand. The difftest harness (its sweep and FuzzAccess)
// calls it between scenario steps; a non-nil error means ranker state has
// drifted from its contract and the simulation's futility values can no
// longer be trusted.
type InvariantChecker interface {
	CheckInvariants() error
}

// CheckInvariants implements InvariantChecker for the tree-backed exact
// rankers (LFU and OPT): every partition tree must satisfy the
// order-statistic contract (ost.Check), every tracked line's stored key (one
// with a ticket) must be findable in some tree, and the per-partition tree
// populations must sum to the number of tracked lines.
func (r *ostRanker) CheckInvariants() error {
	total := 0
	for p, tr := range r.trees {
		if err := ost.Check(tr); err != nil {
			return fmt.Errorf("futility: partition %d tree: %w", p, err)
		}
		total += tr.Len()
	}
	present := 0
	for line := range r.keys {
		if !r.present(line) {
			continue
		}
		present++
		found := false
		for _, tr := range r.trees {
			if tr.Contains(r.keys[line]) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("futility: present line %d has key %v in no partition tree", line, r.keys[line])
		}
	}
	if total != present {
		return fmt.Errorf("futility: tree populations sum to %d, present lines %d", total, present)
	}
	return nil
}

// CheckInvariants implements InvariantChecker for the exact LRU ranker: every
// partition's recency index must be consistent with the shared slot table
// (recency.Index.CheckInvariants), no line may be claimed by two partitions
// or left out of all of them, and each cached fLen must agree with its
// partition's live count.
func (r *ExactLRU) CheckInvariants() error {
	claimed := make([]bool, r.slot.Len())
	for pi := range r.parts {
		p := &r.parts[pi]
		if err := p.CheckInvariants(&r.slot, claimed); err != nil {
			return fmt.Errorf("futility: partition %d: %w", pi, err)
		}
		if !feqBits(r.fLen[pi], float64(p.Live())) {
			return fmt.Errorf("futility: partition %d cached fLen %v, live count %d", pi, r.fLen[pi], p.Live())
		}
	}
	for l := range int32(r.slot.Len()) {
		if s := r.slot.At(l); s != 0 && !claimed[l] {
			return fmt.Errorf("futility: tracked line %d (slot %d) is in no partition's index", l, s)
		}
	}
	return nil
}

// CheckInvariants implements InvariantChecker for the coarse-timestamp
// ranker: per-partition histogram mass conservation (total equals the sum
// of bins), a CDF that never decreases and ends at exactly 1, and
// non-negative sizes. That the sizes count the resident lines is core's audit
// (core.Cache.CheckInvariants), which owns residency. A partition whose
// futility was never queried has no tables yet; it must then have recorded
// nothing.
func (c *CoarseTS) CheckInvariants() error {
	for p, t := range c.cdf {
		if t == nil {
			if c.total[p] != 0 || c.dirty[p] != 0 {
				return fmt.Errorf("futility: partition %d has no CDF tables but total %d, dirty %d",
					p, c.total[p], c.dirty[p])
			}
		} else {
			var mass uint32
			for _, h := range t.hist {
				mass += h
			}
			if mass != c.total[p] {
				return fmt.Errorf("futility: partition %d histogram mass %d != total %d", p, mass, c.total[p])
			}
			for d := 1; d < 256; d++ {
				if t.cdf[d] < t.cdf[d-1] {
					return fmt.Errorf("futility: partition %d CDF decreases at bin %d: %v < %v",
						p, d, t.cdf[d], t.cdf[d-1])
				}
			}
			if !feqBits(t.cdf[255], 1) {
				return fmt.Errorf("futility: partition %d CDF ends at %v, not 1", p, t.cdf[255])
			}
		}
		if c.size[p] < 0 {
			return fmt.Errorf("futility: partition %d negative size %d", p, c.size[p])
		}
	}
	return nil
}
