package core

import (
	"fmt"

	"fscache/internal/futility"
)

// CheckInvariants audits the controller's accounting against a full rescan
// of the array. It is O(lines + parts) and intended for tests, the difftest
// harness and cmd/fscheck, not the simulation hot path. The invariants:
//
//   - every partition size is non-negative and the sizes sum to the number
//     of valid (resident) array lines — occupancy accounting conserves the
//     cache;
//   - every resident line carries in-range decision and owner partitions,
//     and every invalid line carries none;
//   - recounting resident lines per decision partition reproduces sizes,
//     and per owner partition reproduces the owner populations;
//   - the decision ranker tracks exactly sizes[p] lines per partition, and
//     a separate reference ranker tracks exactly the owner populations;
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
		if c.owned[p] < 0 {
			return fmt.Errorf("core: partition %d has negative owner population %d", p, c.owned[p])
		}
		if c.targets[p] < 0 {
			return fmt.Errorf("core: partition %d has negative target %d", p, c.targets[p])
		}
		sum += c.sizes[p]
	}
	valid := 0
	counts := make([]int, c.parts)
	ownerCounts := make([]int, c.parts)
	for l := 0; l < c.array.Lines(); l++ {
		_, resident := c.array.AddrOf(l)
		dp, owner := int(c.meta[l].part), int(c.meta[l].owner)
		if !resident {
			if dp != -1 || owner != -1 {
				return fmt.Errorf("core: invalid line %d still assigned to partition %d/owner %d", l, dp, owner)
			}
			continue
		}
		valid++
		if dp < 0 || dp >= c.parts {
			return fmt.Errorf("core: resident line %d has out-of-range partition %d", l, dp)
		}
		if owner < 0 || owner >= c.parts {
			return fmt.Errorf("core: resident line %d has out-of-range owner %d", l, owner)
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
		if ownerCounts[p] != c.owned[p] {
			return fmt.Errorf("core: partition %d owner recount %d != tracked %d", p, ownerCounts[p], c.owned[p])
		}
		if got := c.ranker.Size(p); got != c.sizes[p] {
			return fmt.Errorf("core: ranker tracks %d lines in partition %d, controller %d", got, p, c.sizes[p])
		}
		switch {
		case c.ref == nil:
			if n := c.pstats[p].EvictFutility.N(); n != 0 {
				return fmt.Errorf("core: unmeasured cache recorded %d eviction futilities in partition %d", n, p)
			}
		case !c.sameRef:
			if got := c.ref.Size(p); got != c.owned[p] {
				return fmt.Errorf("core: reference ranker tracks %d lines in partition %d, owners %d", got, p, c.owned[p])
			}
		}
	}
	if ic, ok := c.ranker.(futility.InvariantChecker); ok {
		if err := ic.CheckInvariants(); err != nil {
			return fmt.Errorf("core: decision ranker: %w", err)
		}
	}
	if !c.sameRef {
		if ic, ok := c.ref.(futility.InvariantChecker); ok {
			if err := ic.CheckInvariants(); err != nil {
				return fmt.Errorf("core: reference ranker: %w", err)
			}
		}
	}
	return nil
}
