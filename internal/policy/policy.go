// Package policy implements cache-capacity allocation policies — the
// software half of capacity management (§II-A): translating QoS objectives
// into per-partition target sizes that an enforcement scheme (internal/core,
// internal/baselines) then realizes.
//
// Three policies are provided: Equal (the Communist default), QoS (the
// paper's evaluation policy: fixed guarantees for subject threads, the
// remainder split among background threads) and Utility (a UCP-style
// Utilitarian policy driven by UMON shadow-tag miss curves with lookahead
// allocation).
package policy

import (
	"fmt"

	"fscache/internal/alloc"
)

// Policy computes per-partition target sizes in lines.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Targets returns one target per partition summing to at most
	// totalLines.
	Targets(totalLines int) []int
}

// Equal splits capacity evenly among Parts partitions.
type Equal struct {
	Parts int
}

// Name implements Policy.
func (Equal) Name() string { return "equal" }

// Targets implements Policy.
func (e Equal) Targets(totalLines int) []int {
	if e.Parts <= 0 {
		panic("policy: Equal needs positive Parts")
	}
	out := make([]int, e.Parts)
	alloc.EvenSplit(out, totalLines)
	return out
}

// QoS is the paper's evaluation policy (§VIII-A): the first Subjects
// partitions are guaranteed SubjectLines each; the remaining Background
// partitions split the leftover capacity equally.
type QoS struct {
	Subjects     int
	Background   int
	SubjectLines int
	// ManagedLines, if positive, caps the capacity the policy may hand out
	// (Vantage can only manage (1−u) of the cache).
	ManagedLines int
}

// Name implements Policy.
func (QoS) Name() string { return "qos" }

// Targets implements Policy. The returned slice has Subjects+Background
// entries.
func (q QoS) Targets(totalLines int) []int {
	if q.Subjects < 0 || q.Background < 0 || q.Subjects+q.Background == 0 {
		panic("policy: QoS needs at least one partition")
	}
	if q.SubjectLines < 0 {
		panic("policy: negative subject allocation")
	}
	budget := totalLines
	if q.ManagedLines > 0 && q.ManagedLines < budget {
		budget = q.ManagedLines
	}
	need := q.Subjects * q.SubjectLines
	if need > budget {
		panicf("%d subjects × %d lines exceed capacity %d",
			q.Subjects, q.SubjectLines, budget)
	}
	out := make([]int, q.Subjects+q.Background)
	for i := 0; i < q.Subjects; i++ {
		out[i] = q.SubjectLines
	}
	if q.Background > 0 {
		alloc.EvenSplit(out[q.Subjects:], budget-need)
	}
	return out
}

// Static wraps fixed targets.
type Static struct {
	Fixed []int
}

// Name implements Policy.
func (Static) Name() string { return "static" }

// Targets implements Policy.
func (s Static) Targets(totalLines int) []int {
	sum := 0
	for _, t := range s.Fixed {
		if t < 0 {
			panic("policy: negative static target")
		}
		sum += t
	}
	if sum > totalLines {
		panic("policy: static targets exceed capacity")
	}
	return append([]int(nil), s.Fixed...)
}

// panicf formats a cold-path panic message out of line, keeping fmt calls
// (and their escaping arguments) out of the callers' bodies — the fslint
// hotpath rule rejects panic(fmt.Sprintf(...)) inline in simulation code.
//
//go:noinline
func panicf(format string, args ...any) {
	panic("policy: " + fmt.Sprintf(format, args...))
}
