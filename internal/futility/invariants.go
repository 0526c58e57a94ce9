package futility

import (
	"fmt"
	"math"

	"fscache/internal/ost"
)

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
// (recency.Index.CheckInvariants), and no line may be claimed by two
// partitions or left out of all of them.
func (r *ExactLRU) CheckInvariants() error {
	claimed := make([]bool, r.slot.Len())
	for pi := range r.parts {
		if err := r.parts[pi].CheckInvariants(&r.slot, claimed); err != nil {
			return fmt.Errorf("futility: partition %d: %w", pi, err)
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
// of bins) and a CDF that never decreases and ends at exactly 1. A partition
// whose futility was never queried has no tables yet; it must then have
// recorded nothing. The sizes are the caller's to audit.
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
			if math.Float64bits(t.cdf[255]) != math.Float64bits(1) { // exactly 1, not close
				return fmt.Errorf("futility: partition %d CDF ends at %v, not 1", p, t.cdf[255])
			}
		}
	}
	return nil
}
