package core

// This file implements the paper's contribution: Futility Scaling.
//
// FSFixed is the analytical form of §IV — each partition i has a fixed
// scaling factor α_i and the candidate with the largest scaled futility
// α_i·f is evicted. With α computed from Eq. (1) the partition sizes are
// statistically stable at their targets while associativity depends only on
// each partition's own α (not on the number of partitions).
//
// FSFeedback is the practical design of §V — futility is the coarse
// timestamp distance, scaling factors move up and down by a changing ratio
// Δα under a small feedback controller (Algorithm 2), and with Δα = 2 the
// scaling is a bit shift exactly as in the hardware proposal.

// FSFixed is Futility Scaling with externally supplied constant scaling
// factors (the analytical scheme of §IV).
type FSFixed struct {
	alphas []float64
}

// NewFSFixed builds an FS scheme over parts partitions with all scaling
// factors initialized to 1 (no scaling).
func NewFSFixed(parts int) *FSFixed {
	if parts <= 0 {
		panic("core: FSFixed needs at least one partition")
	}
	a := make([]float64, parts)
	for i := range a {
		a[i] = 1
	}
	return &FSFixed{alphas: a}
}

// Bind implements Scheme. FSFixed reads neither sizes nor targets: sizing
// emerges from the scaling factors alone. It checks only that they cover the
// partitions its scaling factors do.
func (f *FSFixed) Bind(actual, targets []int) {
	if len(actual) != len(f.alphas) || len(targets) != len(f.alphas) {
		panic("core: Bind length mismatch")
	}
}

// SetAlphas installs the per-partition scaling factors (typically from
// analytic.ScalingFactors). Values must be positive.
func (f *FSFixed) SetAlphas(alphas []float64) {
	if len(alphas) != len(f.alphas) {
		panic("core: SetAlphas length mismatch")
	}
	for _, a := range alphas {
		if a <= 0 {
			panic("core: scaling factors must be positive")
		}
	}
	copy(f.alphas, alphas)
}

// Alphas returns the current scaling factors (read-only view).
func (f *FSFixed) Alphas() []float64 { return f.alphas }

// Decide implements Scheme: evict the candidate with the largest scaled
// futility α_p·f.
//
//fs:allocfree
func (f *FSFixed) Decide(cands []Candidate, insertPart int) Decision {
	best, bestV := 0, -1.0
	for i := range cands {
		if v := cands[i].Futility * f.alphas[cands[i].Part]; v > bestV {
			bestV = v
			best = i
		}
	}
	return Decision{Victim: best}
}

// EvictsPartitionWorst implements FullSelector: within a partition α_p·f is
// largest at the largest f.
func (f *FSFixed) EvictsPartitionWorst() {}

// FSFeedbackConfig parameterizes the feedback controller.
type FSFeedbackConfig struct {
	// Interval is the interval length l: the controller re-evaluates a
	// partition's scaling factor whenever its insertion or eviction counter
	// reaches Interval. The paper finds l = 16 sensible (default).
	Interval int
	// Delta is the changing ratio Δα by which scaling factors are
	// multiplied or divided. The paper sets Δα = 2 so scaling is a bit
	// shift (default).
	Delta float64
	// AlphaMax caps scaling factors; the hardware's 3-bit saturating
	// ScalingShiftWidth gives 2^7 = 128 (default).
	AlphaMax float64
}

func (c *FSFeedbackConfig) setDefaults() {
	if c.Interval == 0 {
		c.Interval = 16
	}
	if c.Delta == 0 { //fslint:ignore style zero is the "unset" sentinel, never a computed value
		c.Delta = 2
	}
	if c.AlphaMax == 0 { //fslint:ignore style zero is the "unset" sentinel, never a computed value
		c.AlphaMax = 128
	}
	if c.Interval < 1 || c.Delta <= 1 || c.AlphaMax < 1 {
		panic("core: invalid FSFeedbackConfig")
	}
}

// FSFeedback is the feedback-based Futility Scaling design of §V: five
// registers per partition (actual size, target size, insertion counter,
// eviction counter, scaling shift width) on top of coarse-grain
// timestamp-based LRU. The controller owns the first two (Bind); the scheme
// keeps the other three.
type FSFeedback struct {
	cfg             FSFeedbackConfig
	alphas          []float64
	ins             []int
	evs             []int
	actual, targets []int // the controller's, read-only
}

// NewFSFeedback builds the feedback FS scheme over parts partitions.
func NewFSFeedback(parts int, cfg FSFeedbackConfig) *FSFeedback {
	if parts <= 0 {
		panic("core: FSFeedback needs at least one partition")
	}
	cfg.setDefaults()
	f := &FSFeedback{
		cfg:    cfg,
		alphas: make([]float64, parts),
		ins:    make([]int, parts),
		evs:    make([]int, parts),
	}
	for i := range f.alphas {
		f.alphas[i] = 1
	}
	return f
}

// Bind implements Scheme.
func (f *FSFeedback) Bind(actual, targets []int) {
	if len(actual) != len(f.alphas) || len(targets) != len(f.alphas) {
		panic("core: Bind length mismatch")
	}
	f.actual, f.targets = actual, targets
}

// Alphas returns the live scaling factors (read-only view; for reports and
// tests).
func (f *FSFeedback) Alphas() []float64 { return f.alphas }

// Decide implements Scheme: evict the candidate with the largest scaled raw
// futility. With the coarse-TS ranker and Δα = 2 this is exactly the
// hardware's shift-and-compare. It reads only Raw and Part, never Futility,
// which Cache.rawOnly relies on.
//
//fs:allocfree
func (f *FSFeedback) Decide(cands []Candidate, insertPart int) Decision {
	best, bestV := 0, -1.0
	for i := range cands {
		if v := float64(cands[i].Raw) * f.alphas[cands[i].Part]; v > bestV {
			bestV = v
			best = i
		}
	}
	return Decision{Victim: best}
}

// EvictsPartitionWorst implements FullSelector.
func (f *FSFeedback) EvictsPartitionWorst() {}

// OnInsert implements Counter (Algorithm 2's insertion counter).
//
//fs:allocfree
func (f *FSFeedback) OnInsert(part int) {
	f.ins[part]++
	if f.ins[part] >= f.cfg.Interval {
		f.adjust(part)
	}
}

// OnEviction implements Counter (Algorithm 2's eviction counter).
//
//fs:allocfree
func (f *FSFeedback) OnEviction(part int) {
	f.evs[part]++
	if f.evs[part] >= f.cfg.Interval {
		f.adjust(part)
	}
}

// ForceAlpha overrides partition part's scaling factor, clamped to the
// controller's legal range [1, AlphaMax], and restarts the partition's
// interval so the controller re-evaluates from the forced state. It exists
// for fault injection (experiment abl-fault) and §V robustness tests:
// Algorithm 2 is claimed to be self-correcting, so after any forced α the
// partition sizes must re-converge to their targets within a few intervals.
func (f *FSFeedback) ForceAlpha(part int, alpha float64) {
	if part < 0 || part >= len(f.alphas) {
		panic("core: ForceAlpha partition out of range")
	}
	if alpha < 1 {
		alpha = 1
	}
	if alpha > f.cfg.AlphaMax {
		alpha = f.cfg.AlphaMax
	}
	f.alphas[part] = alpha
	f.ins[part] = 0
	f.evs[part] = 0
}

// AlphaMax returns the controller's scaling-factor cap (the saturation
// value of the hardware's 3-bit scaling shift width).
func (f *FSFeedback) AlphaMax() float64 { return f.cfg.AlphaMax }

// Interval returns the controller's interval length l.
func (f *FSFeedback) Interval() int { return f.cfg.Interval }

// adjust is Algorithm 2: scale up when the partition is oversized and still
// growing, scale down when undersized and still shrinking; checking the
// growth tendency avoids over-scaling during resizing transients.
func (f *FSFeedback) adjust(part int) {
	ni, ne := f.ins[part], f.evs[part]
	switch {
	case ni >= ne && f.actual[part] > f.targets[part]:
		f.alphas[part] *= f.cfg.Delta
		if f.alphas[part] > f.cfg.AlphaMax {
			f.alphas[part] = f.cfg.AlphaMax
		}
	case ni <= ne && f.actual[part] < f.targets[part]:
		f.alphas[part] /= f.cfg.Delta
		if f.alphas[part] < 1 {
			f.alphas[part] = 1
		}
	}
	f.ins[part] = 0
	f.evs[part] = 0
}
