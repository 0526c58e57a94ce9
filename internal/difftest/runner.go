package difftest

import (
	"fmt"
	"math"

	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/oracle"
	"fscache/internal/trace"
)

// invariantStride is how often (in ops) the runner audits both models'
// internal invariants. Auditing is O(lines·parts), so every step would
// dominate the run; a stride keeps the harness fast while still bounding
// how far corruption can spread undetected.
const invariantStride = 64

// Divergence reports the first point where the optimized cache and the
// oracle disagree. A nil Divergence means the scenario ran to completion in
// perfect lockstep.
type Divergence struct {
	// Step is the op index at which the models disagreed.
	Step int
	// Field names the first mismatching observable.
	Field string
	// Fast and Oracle render the two sides' values.
	Fast, Oracle string
}

// Error formats the divergence as a one-line report.
func (d *Divergence) Error() string {
	return fmt.Sprintf("difftest: step %d: %s diverged: fast=%s oracle=%s", d.Step, d.Field, d.Fast, d.Oracle)
}

// Options tunes a differential run.
type Options struct {
	// WrapRanker, if non-nil, decorates the system under test's decision
	// ranker. The harness self-test wraps a deliberately buggy ranker here
	// to prove the pipeline catches and shrinks injected defects.
	WrapRanker func(futility.Ranker) futility.Ranker
	// SkipInvariants disables the periodic CheckInvariants audits (the
	// shrinker uses this: a shrunk candidate only needs to reproduce the
	// observable divergence).
	SkipInvariants bool
}

// RunScenario executes one scenario against both models in lockstep and
// returns the first divergence, or nil if they agree everywhere. The run
// stops at the first mismatch so the two sides' RNG streams and array
// states are still aligned at the reported step, which keeps reports
// interpretable and makes shrinking deterministic.
func RunScenario(s *Scenario, opt Options) (div *Divergence) {
	defer func() {
		// A panic in either model is a divergence from "runs correctly";
		// report it as one so soak loops, fuzzing and the shrinker handle
		// it with the scenario attached rather than crashing the process.
		if r := recover(); r != nil {
			div = &Divergence{Step: len(s.Ops) - 1, Field: "panic", Fast: fmt.Sprint(r), Oracle: "n/a"}
		}
	}()
	b, alphas := buildFast(s, opt.WrapRanker)
	fast, fb := b.Cache, b.FSFeedback
	ora := buildOracle(s)
	for i, op := range s.Ops {
		switch op.Kind {
		case OpResize:
			t := s.Targets(op.W)
			fast.SetTargets(t)
			ora.SetTargets(t)
			continue
		case OpForceAlpha:
			if fb != nil {
				a := 1 + float64(op.AQ)/2
				fb.ForceAlpha(op.Part, a)
				ora.ForceAlpha(op.Part, a)
			}
			continue
		}
		fr := fast.Access(uint64(op.K), op.Part, trace.NoNextUse)
		or := ora.Access(uint64(op.K), op.Part)
		if d := compare(i, fr, or, fast, ora, alphas); d != nil {
			return d
		}
		if !opt.SkipInvariants && (i%invariantStride == invariantStride-1 || i == len(s.Ops)-1) {
			if err := fast.CheckInvariants(); err != nil {
				return &Divergence{Step: i, Field: "fast-invariants", Fast: err.Error(), Oracle: "ok"}
			}
			if err := ora.CheckInvariants(); err != nil {
				return &Divergence{Step: i, Field: "oracle-invariants", Fast: "ok", Oracle: err.Error()}
			}
		}
	}
	return nil
}

// compare checks every per-access observable, cheapest first. Futility and
// scaling factors are compared bit-exactly: the oracle is constructed to
// produce the identical float64s, so any ULP of drift is a real semantic
// difference, not noise.
func compare(step int, fr core.AccessResult, or oracle.Result, fast *core.Cache, ora *oracle.Cache, alphas alphasView) *Divergence {
	if fr.Hit != or.Hit {
		return &Divergence{step, "hit", fmt.Sprint(fr.Hit), fmt.Sprint(or.Hit)}
	}
	if fr.Evicted != or.Evicted {
		return &Divergence{step, "evicted", fmt.Sprint(fr.Evicted), fmt.Sprint(or.Evicted)}
	}
	if fr.Evicted {
		if fr.EvictedLine != or.EvictedLine {
			return &Divergence{step, "victim-line", fmt.Sprint(fr.EvictedLine), fmt.Sprint(or.EvictedLine)}
		}
		if fr.EvictedPart != or.EvictedPart {
			return &Divergence{step, "victim-part", fmt.Sprint(fr.EvictedPart), fmt.Sprint(or.EvictedPart)}
		}
		if math.Float64bits(fr.EvictedFutility) != math.Float64bits(or.EvictedFutility) {
			return &Divergence{step, "eviction-futility",
				fmt.Sprintf("%v (bits %#x)", fr.EvictedFutility, math.Float64bits(fr.EvictedFutility)),
				fmt.Sprintf("%v (bits %#x)", or.EvictedFutility, math.Float64bits(or.EvictedFutility))}
		}
	}
	fs, os := fast.Sizes(), ora.Sizes()
	for p := range fs {
		if fs[p] != os[p] {
			return &Divergence{step, fmt.Sprintf("size[%d]", p), fmt.Sprint(fs), fmt.Sprint(os)}
		}
	}
	for p := 0; p < fast.Parts(); p++ {
		st := fast.Stats(p)
		for _, c := range [...]struct {
			name      string
			fast, ora uint64
		}{
			{"hits", st.Hits, ora.Hits(p)},
			{"misses", st.Misses, ora.Misses(p)},
			{"evictions", st.Evictions, ora.Evictions(p)},
			{"demotions", st.Demotions, ora.Demotions(p)},
			{"forced", st.ForcedEvict, ora.ForcedEvictions(p)},
		} {
			if c.fast != c.ora {
				return &Divergence{step, fmt.Sprintf("%s[%d]", c.name, p), fmt.Sprint(c.fast), fmt.Sprint(c.ora)}
			}
		}
	}
	// Vantage has no scaling factors; alphas is nil there.
	if alphas != nil {
		fa, oa := alphas.Alphas(), ora.Alphas()
		for p := range fa {
			if math.Float64bits(fa[p]) != math.Float64bits(oa[p]) {
				return &Divergence{step, fmt.Sprintf("alpha[%d]", p),
					fmt.Sprintf("%v", fa), fmt.Sprintf("%v", oa)}
			}
		}
	}
	return nil
}
