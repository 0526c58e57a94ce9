package baselines

import "fscache/internal/core"

// Vantage's parameters are the paper's (§VII-B): "an unmanaged region
// u = 10%, a maximum aperture A_max = 0.5 and slack = 0.1".
const (
	// vantageUnmanagedPercent is u, in percent of the cache's lines.
	vantageUnmanagedPercent = 10
	// vantageMaxAperture is A_max, the largest fraction of a partition's
	// futility range that may be demoted.
	vantageMaxAperture = 0.5
	// vantageSlack sets where the aperture saturates: A reaches A_max when
	// a partition is (1+slack)× its target.
	vantageSlack = 0.1
)

// VantageManagedLines is the capacity Vantage manages in a cache of lines
// lines: all but the unmanaged region u. Vantage enforces u only through
// its targets: the application partitions' targets must sum to this, and
// the unmanaged pseudo-partition keeps the rest. fig7 and abl-resize size
// them from it, and `fstables -scenario` and `fsim -scheme vantage` scale
// their targets into it (experiments.Built.SetCacheTargets).
func VantageManagedLines(lines int) int {
	return lines * (100 - vantageUnmanagedPercent) / 100
}

// Vantage partitions the managed region of the cache by demoting lines of
// oversized partitions into an unmanaged region, from which evictions are
// normally taken. Each partition has an aperture A_p grown linearly with
// its overshoot; candidates whose within-partition futility falls in the
// top A_p fraction are demoted. If no replacement candidate lies in the
// unmanaged region the scheme is forced to evict a managed line — with R
// candidates this happens with probability ≈ (1−u)^R (18.5% for u = 0.1,
// R = 16), which is why Vantage cannot strictly guarantee sizes on a
// 16-way cache (§VIII-A).
//
// The unmanaged region is modeled as a dedicated pseudo-partition, the
// last one: callers construct the controller with parts = application
// partitions + 1. Targets for the unmanaged partition are ignored.
type Vantage struct {
	parts, unmanagedPart int
	actual, targets      []int // the controller's, read-only
	demoteBuf            []int
}

// NewVantage builds a Vantage scheme over parts total partitions, the last
// of which is the unmanaged pseudo-partition.
func NewVantage(parts int) *Vantage {
	if parts < 2 {
		panic("baselines: Vantage needs an application partition and the unmanaged one")
	}
	return &Vantage{parts: parts, unmanagedPart: parts - 1}
}

// Bind implements core.Scheme.
func (v *Vantage) Bind(actual, targets []int) {
	checkBind(actual, targets, v.parts)
	v.actual, v.targets = actual, targets
}

// aperture returns A_p for a managed partition.
func (v *Vantage) aperture(part int) float64 {
	t := v.targets[part]
	if t <= 0 {
		// Partitions with no allocation demote everything above nothing:
		// treat as fully open so they cannot squat in the managed region.
		return vantageMaxAperture
	}
	over := float64(v.actual[part]-t) / (vantageSlack * float64(t))
	if over <= 0 {
		return 0
	}
	if over >= 1 {
		return vantageMaxAperture
	}
	return vantageMaxAperture * over
}

// Decide implements core.Scheme.
func (v *Vantage) Decide(cands []core.Candidate, insertPart int) core.Decision {
	v.demoteBuf = v.demoteBuf[:0]
	bestUn, bestUnF := -1, -1.0
	bestDem, bestDemF := -1, -1.0
	for i := range cands {
		p := cands[i].Part
		if p == v.unmanagedPart {
			if cands[i].Futility > bestUnF {
				bestUnF = cands[i].Futility
				bestUn = i
			}
			continue
		}
		if a := v.aperture(p); a > 0 && cands[i].Futility >= 1-a {
			v.demoteBuf = append(v.demoteBuf, i)
			if cands[i].Futility > bestDemF {
				bestDemF = cands[i].Futility
				bestDem = i
			}
		}
	}
	switch {
	case bestUn >= 0:
		// Normal case: evict from the unmanaged region and demote everything
		// within aperture.
		return core.Decision{
			Victim:   bestUn,
			Demote:   v.demoteBuf,
			DemoteTo: v.unmanagedPart,
		}
	case bestDem >= 0:
		// No unmanaged candidate: evict the most useless demotable line
		// directly (skipping its trip through the unmanaged region) and
		// demote the rest.
		keep := v.demoteBuf[:0]
		for _, di := range v.demoteBuf {
			if di != bestDem {
				keep = append(keep, di)
			}
		}
		return core.Decision{
			Victim:   bestDem,
			Demote:   keep,
			DemoteTo: v.unmanagedPart,
		}
	default:
		// Forced eviction from the managed region: the isolation breach the
		// paper quantifies as P = (1−u)^R.
		best, bestF := 0, -1.0
		for i := range cands {
			if cands[i].Futility > bestF {
				bestF = cands[i].Futility
				best = i
			}
		}
		return core.Decision{Victim: best, Forced: true}
	}
}
