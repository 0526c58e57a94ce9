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
// consistency on demand. The difftest harness and cmd/fscheck call it
// between scenario steps; a non-nil error means ranker state has drifted
// from its contract and the simulation's futility values can no longer be
// trusted.
type InvariantChecker interface {
	CheckInvariants() error
}

// CheckInvariants implements InvariantChecker for the tree-backed exact
// rankers (LFU, OPT, SLRU): every partition tree must satisfy the
// order-statistic contract
// (ost.Check), every present line's stored key must be findable in some
// tree, and the per-partition tree populations must sum to the number of
// present lines. The cached fLen denominator must also agree with the live
// tree length, since futility normalization divides by it.
func (r *ostRanker) CheckInvariants() error {
	total := 0
	for p, tr := range r.trees {
		if err := ost.Check(tr); err != nil {
			return fmt.Errorf("futility: partition %d tree: %w", p, err)
		}
		if got, want := r.fLen[p], float64(tr.Len()); !feqBits(got, want) {
			return fmt.Errorf("futility: partition %d cached fLen %v != live tree length %v", p, got, want)
		}
		total += tr.Len()
	}
	present := 0
	for line, ok := range r.present {
		if !ok {
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

// CheckInvariants implements InvariantChecker for the recency index: in
// every partition the Fenwick nodes must equal the live-slot counts of the
// ranges they cover, slot ↔ lineAt must be a bijection between the live
// slots and the tracked lines (no line claimed twice, none left out), and
// the live count and its cached fLen must agree with the slots.
func (r *ExactLRU) CheckInvariants() error {
	claimed := make([]bool, len(r.slot))
	for pi := range r.parts {
		p := &r.parts[pi]
		if p.cap&(p.cap-1) != 0 || len(p.tree) != len(p.lineAt) || (p.cap > 0 && len(p.tree) != int(p.cap)+1) {
			return fmt.Errorf("futility: partition %d capacity %d with %d tree and %d slot entries", pi, p.cap, len(p.tree), len(p.lineAt))
		}
		if p.next < 1 || p.next > p.cap+1 || p.group < 1 || p.group > p.next {
			return fmt.Errorf("futility: partition %d next slot %d, group %d out of range for capacity %d", pi, p.next, p.group, p.cap)
		}
		// count[s] is the number of live slots in 1..s.
		count := make([]int32, p.cap+1)
		for s := int32(1); s <= p.cap; s++ {
			count[s] = count[s-1]
			if s >= p.next || p.lineAt[s] < 0 {
				continue
			}
			count[s]++
			l := p.lineAt[s]
			if int(l) >= len(r.slot) || r.slot[l] != s || claimed[l] {
				return fmt.Errorf("futility: partition %d slot %d holds line %d, whose slot is not (only) that one", pi, s, l)
			}
			claimed[l] = true
		}
		for i := int32(1); i <= p.cap; i++ {
			if want := count[i] - count[i&(i-1)]; p.tree[i] != want {
				return fmt.Errorf("futility: partition %d Fenwick node %d = %d, live slots in its range %d", pi, i, p.tree[i], want)
			}
		}
		if live := count[p.cap]; p.live != live || !feqBits(r.fLen[pi], float64(live)) {
			return fmt.Errorf("futility: partition %d live count %d, cached fLen %v, live slots %d", pi, p.live, r.fLen[pi], live)
		}
	}
	for l, s := range r.slot {
		if s != 0 && !claimed[l] {
			return fmt.Errorf("futility: tracked line %d (slot %d) is in no partition's index", l, s)
		}
	}
	return nil
}

// CheckInvariants implements InvariantChecker for the coarse-timestamp
// ranker: per-partition histogram mass conservation (total equals the sum
// of bins), monotone nondecreasing cumulative snapshot with the snapshot
// denominator equal to the snapshot's final cumulative mass (so the lazily
// divided CDF is a genuine CDF ending at 1), non-negative sizes summing to
// the present-line count, and dirtyLo within range. A partition whose
// futility was never queried has no tables yet; it must then have recorded
// nothing and still sit on the uniform prior's denominator.
func (c *CoarseTS) CheckInvariants() error {
	sizeSum := 0
	for p, t := range c.cdf {
		if t == nil {
			if c.total[p] != 0 || c.dirty[p] != 0 || !feqBits(c.snapTotal[p], 256) {
				return fmt.Errorf("futility: partition %d has no CDF tables but total %d, dirty %d, denominator %v",
					p, c.total[p], c.dirty[p], c.snapTotal[p])
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
				if t.cum[d] < t.cum[d-1] {
					return fmt.Errorf("futility: partition %d CDF snapshot decreases at bin %d: %d < %d",
						p, d, t.cum[d], t.cum[d-1])
				}
			}
			if got, want := c.snapTotal[p], float64(t.cum[255]); !feqBits(got, want) {
				return fmt.Errorf("futility: partition %d snapshot denominator %v != snapshot mass %v", p, got, want)
			}
			if c.snapTotal[p] <= 0 {
				return fmt.Errorf("futility: partition %d snapshot denominator %v not positive", p, c.snapTotal[p])
			}
		}
		if c.size[p] < 0 {
			return fmt.Errorf("futility: partition %d negative size %d", p, c.size[p])
		}
		sizeSum += c.size[p]
		if lo := c.dirtyLo[p]; lo < 0 || lo > 256 {
			return fmt.Errorf("futility: partition %d dirtyLo %d out of range", p, lo)
		}
	}
	present := 0
	for _, ok := range c.present {
		if ok {
			present++
		}
	}
	if sizeSum != present {
		return fmt.Errorf("futility: partition sizes sum to %d, present lines %d", sizeSum, present)
	}
	return nil
}
