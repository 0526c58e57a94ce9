// Package baselines implements the partitioning schemes the paper compares
// Futility Scaling against (§VII-B): the no-partitioning baseline, the
// Partitioning-First scheme (Algorithm 1), CQVP quota enforcement, Vantage
// and PriSM. All implement core.Scheme; PF is also a core.FullSelector, so it
// can drive the FullAssoc ideal configuration (the PF scheme on a
// fully-associative array).
package baselines

import "fscache/internal/core"

// Unmanaged is the no-partitioning baseline: always evict the least useful
// candidate regardless of partition (a shared cache with plain replacement).
type Unmanaged struct{}

// NewUnmanaged returns the no-partitioning scheme.
func NewUnmanaged() *Unmanaged { return &Unmanaged{} }

// Bind implements core.Scheme.
func (*Unmanaged) Bind(actual []int) {}

// SetTargets implements core.Scheme.
func (*Unmanaged) SetTargets(targets []int) {}

// Decide implements core.Scheme: global max futility.
func (*Unmanaged) Decide(cands []core.Candidate, insertPart int) core.Decision {
	best, bestF := 0, -1.0
	for i := range cands {
		if cands[i].Futility > bestF {
			bestF = cands[i].Futility
			best = i
		}
	}
	return core.Decision{Victim: best}
}

// EvictsPartitionWorst implements core.FullSelector.
func (*Unmanaged) EvictsPartitionWorst() {}

// OnInsert implements core.Scheme.
func (*Unmanaged) OnInsert(part int) {}

// OnEviction implements core.Scheme.
func (*Unmanaged) OnEviction(part int) {}

// PF is the Partitioning-First scheme of Algorithm 1: Partition Selection
// picks the candidate partition whose actual size most exceeds its target,
// then Victim Identification evicts the most useless candidate of that
// partition. It enforces sizes near-perfectly but suffers the
// associativity collapse of §III-C as partitions proliferate.
type PF struct {
	actual  []int
	targets []int
}

// NewPF builds the Partitioning-First scheme over parts partitions.
func NewPF(parts int) *PF {
	if parts <= 0 {
		panic("baselines: PF needs at least one partition")
	}
	return &PF{targets: make([]int, parts)}
}

// Bind implements core.Scheme.
func (p *PF) Bind(actual []int) { p.actual = actual }

// SetTargets implements core.Scheme.
func (p *PF) SetTargets(targets []int) {
	if len(targets) != len(p.targets) {
		panic("baselines: SetTargets length mismatch")
	}
	copy(p.targets, targets)
}

// Decide implements core.Scheme (Algorithm 1).
func (p *PF) Decide(cands []core.Candidate, insertPart int) core.Decision {
	// Step 1: Partition Selection — max overshoot among candidate partitions.
	chosen, maxOver := -1, 0
	for i := range cands {
		part := cands[i].Part
		over := p.actual[part] - p.targets[part]
		if chosen == -1 || over > maxOver {
			maxOver = over
			chosen = part
		}
	}
	// Step 2: Victim Identification — max futility within the chosen one.
	best, bestF := -1, -1.0
	for i := range cands {
		if cands[i].Part != chosen {
			continue
		}
		if cands[i].Futility > bestF {
			bestF = cands[i].Futility
			best = i
		}
	}
	return core.Decision{Victim: best}
}

// EvictsPartitionWorst implements core.FullSelector: step 2 evicts the chosen
// partition's most useless candidate. Given each partition's single worst
// line, step 1 reduces to the most oversized non-empty partition: this is the
// paper's FullAssoc ideal scheme.
func (*PF) EvictsPartitionWorst() {}

// OnInsert implements core.Scheme.
func (*PF) OnInsert(part int) {}

// OnEviction implements core.Scheme.
func (*PF) OnEviction(part int) {}

// CQVP is Cache Quota Violation Prohibition: victims come from partitions
// exceeding their quotas. Among candidates of over-quota partitions it
// evicts the most useless; if no candidate is over quota it falls back to
// the inserting partition's candidates, then to the global least useful.
type CQVP struct {
	actual  []int
	targets []int
}

// NewCQVP builds the quota scheme over parts partitions.
func NewCQVP(parts int) *CQVP {
	if parts <= 0 {
		panic("baselines: CQVP needs at least one partition")
	}
	return &CQVP{targets: make([]int, parts)}
}

// Bind implements core.Scheme.
func (c *CQVP) Bind(actual []int) { c.actual = actual }

// SetTargets implements core.Scheme.
func (c *CQVP) SetTargets(targets []int) {
	if len(targets) != len(c.targets) {
		panic("baselines: SetTargets length mismatch")
	}
	copy(c.targets, targets)
}

// Decide implements core.Scheme.
func (c *CQVP) Decide(cands []core.Candidate, insertPart int) core.Decision {
	best, bestF := -1, -1.0
	for i := range cands {
		part := cands[i].Part
		if c.actual[part] > c.targets[part] && cands[i].Futility > bestF {
			bestF = cands[i].Futility
			best = i
		}
	}
	if best >= 0 {
		return core.Decision{Victim: best}
	}
	// No over-quota candidate: prefer self-replacement within the inserting
	// partition so other partitions' quotas stay inviolate.
	for i := range cands {
		if cands[i].Part == insertPart && cands[i].Futility > bestF {
			bestF = cands[i].Futility
			best = i
		}
	}
	if best >= 0 {
		return core.Decision{Victim: best}
	}
	for i := range cands {
		if cands[i].Futility > bestF {
			bestF = cands[i].Futility
			best = i
		}
	}
	return core.Decision{Victim: best}
}

// OnInsert implements core.Scheme.
func (*CQVP) OnInsert(part int) {}

// OnEviction implements core.Scheme.
func (*CQVP) OnEviction(part int) {}
