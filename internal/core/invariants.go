package core

import (
	"fmt"

	"fscache/internal/futility"
)

// CheckInvariants audits the controller's accounting against a full rescan
// of the array. It is O(lines + parts) and intended for tests and the
// difftest harness (its sweep and FuzzAccess), not the simulation hot path.
// The invariants:
//
//   - every partition size is non-negative and the sizes sum to the number
//     of valid (resident) array lines — occupancy accounting conserves the
//     cache;
//   - the partition codes are one a line, in the halves their bound 2·Parts
//     needs (a high half exactly when it reaches 256);
//   - every resident line carries an in-range partition code, and every
//     invalid line carries none; a demoted line's owner is not the demotion
//     target, and there is a target (in range) once any line is demoted;
//   - recounting resident lines per decision partition reproduces sizes;
//   - the decision ranker tracks exactly sizes[p] lines per partition, and
//     a separate reference ranker exactly the lines each partition owns
//     (recounted here: the controller keeps no owner populations);
//   - an unmeasured cache has recorded no eviction futility;
//   - targets are non-negative.
//
// When the decision or reference ranker implements
// futility.InvariantChecker, its own audit runs too, so one call covers the
// whole replacement pipeline's state.
func (c *Cache) CheckInvariants() error {
	sum := 0
	for p := 0; p < c.parts; p++ {
		if c.sizes[p] < 0 {
			return fmt.Errorf("core: partition %d has negative size %d", p, c.sizes[p])
		}
		if c.targets[p] < 0 {
			return fmt.Errorf("core: partition %d has negative target %d", p, c.targets[p])
		}
		sum += c.sizes[p]
	}
	if c.demoteTo < -1 || c.demoteTo >= c.parts {
		return fmt.Errorf("core: demotion target %d out of range", c.demoteTo)
	}
	if c.meta.Len() != c.array.Lines() || !c.meta.Matches(maxCode(c.parts)) {
		return fmt.Errorf("core: partition-code table of %d entries in %d bytes, want one a line of %d lines, codes up to %d",
			c.meta.Len(), c.meta.Bytes(), c.array.Lines(), maxCode(c.parts))
	}
	valid := 0
	counts := make([]int, c.parts)
	ownerCounts := make([]int, c.parts)
	for l := 0; l < c.array.Lines(); l++ {
		_, resident := c.array.AddrOf(l)
		id := c.meta.At(int32(l))
		if !resident {
			if id != noLine {
				return fmt.Errorf("core: invalid line %d still carries partition code %d", l, id)
			}
			continue
		}
		valid++
		dp, owner := c.partOf(l), c.ownerOf(l)
		if owner < 0 || owner >= c.parts {
			return fmt.Errorf("core: resident line %d has partition code %d, owner %d out of range", l, id, owner)
		}
		if id > int32(c.parts) && (c.demoteTo < 0 || owner == c.demoteTo) {
			return fmt.Errorf("core: line %d of partition %d is demoted into %d", l, owner, c.demoteTo)
		}
		counts[dp]++
		ownerCounts[owner]++
	}
	if sum != valid {
		return fmt.Errorf("core: partition sizes sum to %d, resident lines %d", sum, valid)
	}
	for p := 0; p < c.parts; p++ {
		if counts[p] != c.sizes[p] {
			return fmt.Errorf("core: partition %d recount %d != tracked size %d", p, counts[p], c.sizes[p])
		}
		if got := c.ranker.Size(p); got != c.sizes[p] {
			return fmt.Errorf("core: ranker tracks %d lines in partition %d, controller %d", got, p, c.sizes[p])
		}
		switch {
		case c.unmeasured:
			if h := c.pstats[p].EvictFutility; h != nil {
				return fmt.Errorf("core: unmeasured cache keeps an eviction-futility histogram of %d samples in partition %d", h.N(), p)
			}
		case c.ref != nil:
			if got := c.ref.Size(p); got != ownerCounts[p] {
				return fmt.Errorf("core: reference ranker tracks %d lines in partition %d, owners %d", got, p, ownerCounts[p])
			}
		}
	}
	if ic, ok := c.ranker.(futility.InvariantChecker); ok {
		if err := ic.CheckInvariants(); err != nil {
			return fmt.Errorf("core: decision ranker: %w", err)
		}
	}
	if c.ref != nil {
		if ic, ok := c.ref.(futility.InvariantChecker); ok {
			if err := ic.CheckInvariants(); err != nil {
				return fmt.Errorf("core: reference ranker: %w", err)
			}
		}
	}
	return nil
}
