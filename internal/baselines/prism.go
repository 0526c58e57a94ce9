package baselines

import (
	"fscache/internal/core"
	"fscache/internal/xrand"
)

// PriSM is Probabilistic Shared-cache Management: every window of W misses
// it recomputes a per-partition eviction probability distribution
//
//	E_i = max(0, I_i·W + (N_i^A − N_i^T)) / W,   then normalized,
//
// where I_i·W is the partition's insertion count in the last window. On
// each replacement it samples a partition from E and evicts the least
// useful candidate belonging to it. When no candidate belongs to the
// sampled partition — the "abnormality" — it falls back to the globally
// least useful candidate. The paper shows this abnormality dominates at
// N = 32 partitions with R = 16 candidates (probability over 70%),
// destroying PriSM's sizing (§VIII-A).
type PriSM struct {
	rng             *xrand.Rand
	actual, targets []int // the controller's, read-only
	insWindow       []int
	evProb          []float64 // nil until the first window completes
	missed          int

	// Abnormalities counts replacements where the sampled partition had no
	// candidate (exported for the reproduction's diagnostics).
	Abnormalities uint64
	// Selections counts scheme decisions.
	Selections uint64
}

// prismWindow is the recomputation window W in misses.
const prismWindow = 128

// NewPriSM builds a PriSM scheme over parts partitions.
func NewPriSM(parts int, seed uint64) *PriSM {
	if parts <= 0 {
		panic("baselines: PriSM needs at least one partition")
	}
	return &PriSM{
		rng:       xrand.New(seed),
		insWindow: make([]int, parts),
	}
}

// Bind implements core.Scheme.
func (p *PriSM) Bind(actual, targets []int) {
	checkBind(actual, targets, len(p.insWindow))
	p.actual, p.targets = actual, targets
}

// AbnormalityRate returns the fraction of decisions hitting the fallback.
func (p *PriSM) AbnormalityRate() float64 {
	if p.Selections == 0 {
		return 0
	}
	return float64(p.Abnormalities) / float64(p.Selections)
}

// Decide implements core.Scheme.
func (p *PriSM) Decide(cands []core.Candidate, insertPart int) core.Decision {
	p.Selections++
	if p.evProb != nil {
		// Partition-Selection: sample from the eviction distribution.
		target := p.samplePartition()
		best, bestF := -1, -1.0
		for i := range cands {
			if cands[i].Part != target {
				continue
			}
			if cands[i].Futility > bestF {
				bestF = cands[i].Futility
				best = i
			}
		}
		if best >= 0 {
			return core.Decision{Victim: best}
		}
		p.Abnormalities++
	}
	// Fallback (and pre-first-window behavior): least useful overall.
	best, bestF := 0, -1.0
	for i := range cands {
		if cands[i].Futility > bestF {
			bestF = cands[i].Futility
			best = i
		}
	}
	return core.Decision{Victim: best}
}

func (p *PriSM) samplePartition() int {
	u := p.rng.Float64()
	acc := 0.0
	for i, pr := range p.evProb {
		acc += pr
		if u < acc {
			return i
		}
	}
	return len(p.evProb) - 1
}

// OnInsert implements core.Scheme: counts window insertions and recomputes
// the eviction distribution at window boundaries.
func (p *PriSM) OnInsert(part int) {
	p.insWindow[part]++
	p.missed++
	if p.missed < prismWindow {
		return
	}
	if p.evProb == nil {
		p.evProb = make([]float64, len(p.insWindow))
	}
	sum := 0.0
	for i := range p.evProb {
		e := float64(p.insWindow[i]) + float64(p.actual[i]-p.targets[i])
		if e < 0 {
			e = 0
		}
		p.evProb[i] = e
		sum += e
	}
	if sum <= 0 {
		// Degenerate window (no pressure anywhere): fall back to uniform.
		for i := range p.evProb {
			p.evProb[i] = 1 / float64(len(p.evProb))
		}
	} else {
		for i := range p.evProb {
			p.evProb[i] /= sum
		}
	}
	for i := range p.insWindow {
		p.insWindow[i] = 0
	}
	p.missed = 0
}

// OnEviction implements core.Scheme.
func (*PriSM) OnEviction(part int) {}
