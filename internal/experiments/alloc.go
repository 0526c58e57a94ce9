package experiments

import (
	"fmt"
	"io"

	"fscache/internal/alloc"
	"fscache/internal/scenario"
)

// Alloc experiment: run one scenario twice under FS enforcement — once on
// the static share-apportioned targets every scenario run uses today, and
// once with targets recomputed online by the internal/alloc epoch loop —
// and compare aggregate miss ratio and occupancy tracking. This is the
// closed measurement→targets loop of ROADMAP item 3; the decision log shows
// targets following workload phases instead of standing still.

// AllocGateMargin is how much worse (absolute miss ratio) the online
// allocator may be than the static split before RunScenarioAlloc fails.
// The allocator spends capacity learning, so exact parity on adversarial
// static-friendly specs is not required — but it must stay within this
// margin, and on drifting specs it should win outright.
const AllocGateMargin = 0.01

// AllocResult compares static and allocator-driven targets on one scenario.
type AllocResult struct {
	Name      string
	Objective string
	Parts     int
	Lines     int
	Accesses  int
	// Static and Alloc are the two runs' outcomes (Scheme is reused for the
	// target mode).
	Static ScenarioRow
	Alloc  ScenarioRow
	// Epochs is the number of allocation epochs closed; Reallocations
	// counts epochs whose decision changed the targets; DriftEpochs counts
	// epochs whose curve divergence exceeded the drift threshold.
	Epochs        int
	Reallocations int
	DriftEpochs   int
	// MinLines is the allocator's per-live-partition floor, one chunk,
	// re-verified against every logged decision.
	MinLines int
	// Decisions is the allocator's retained decision log (oldest first).
	Decisions []alloc.Decision
}

// RunScenarioAlloc executes the spec under FS with static targets and again
// with the named allocation objective driving targets online. It returns an
// error — failing the harness run — when the allocator violates its floors
// or capacity on any logged decision, or when its aggregate miss ratio
// diverges more than AllocGateMargin above the static split's.
func RunScenarioAlloc(spec *scenario.Spec, dir, objective string) (*AllocResult, error) {
	comp, err := scenario.Compile(spec, dir)
	if err != nil {
		return nil, err
	}
	cfg, err := comp.AllocConfig(objective)
	if err != nil {
		return nil, err
	}
	a := alloc.New(cfg)

	res := &AllocResult{
		Name:      spec.Name,
		Objective: objective,
		Parts:     comp.Parts(),
		Lines:     spec.Cache.Lines,
		Accesses:  spec.Accesses,
		MinLines:  cfg.ChunkLines,
	}

	res.Static, _ = runScenarioScheme(spec, comp, buildScenarioCache(spec, SchemeFS, res.Parts), nil, nil)
	res.Static.Scheme = "static"
	res.Alloc, _ = runScenarioScheme(spec, comp, buildScenarioCache(spec, SchemeFS, res.Parts), nil, a)
	res.Alloc.Scheme = "alloc:" + objective

	log, _ := a.Log()
	res.Decisions = log
	res.Epochs = a.Epoch()
	for _, d := range log {
		if d.Changed {
			res.Reallocations++
		}
		if d.Drift {
			res.DriftEpochs++
		}
	}
	if err := checkDecisions(log, spec.Cache.Lines, cfg.ChunkLines); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	if res.Alloc.MissRatio > res.Static.MissRatio+AllocGateMargin {
		return nil, fmt.Errorf("scenario %s: %s allocator miss ratio %.4f diverged above static %.4f (margin %.3f)",
			spec.Name, objective, res.Alloc.MissRatio, res.Static.MissRatio, AllocGateMargin)
	}
	return res, nil
}

// checkDecisions fails the first logged decision that breaks the line
// budget or a per-partition floor: every target must be 0 (a dead
// partition) or at least minLines, and the targets may sum to at most lines.
func checkDecisions(log []alloc.Decision, lines, minLines int) error {
	for _, d := range log {
		sum := 0
		for p, t := range d.Targets {
			if t != 0 && t < minLines {
				return fmt.Errorf("epoch %d gave partition %d %d lines, below the floor of %d",
					d.Epoch, p, t, minLines)
			}
			sum += t
		}
		if sum > lines {
			return fmt.Errorf("epoch %d allocated %d lines of %d", d.Epoch, sum, lines)
		}
	}
	return nil
}

// Print implements Printable.
func (r *AllocResult) Print(w io.Writer) {
	fprintf(w, "Alloc %s: %d lines, %d partitions, %d accesses, objective %s\n",
		r.Name, r.Lines, r.Parts, r.Accesses, r.Objective)
	fprintf(w, "  %-14s %10s %10s %12s %12s\n", "targets", "missratio", "occ-err", "forced-rate", "evictions")
	for _, row := range []ScenarioRow{r.Static, r.Alloc} {
		fprintf(w, "  %-14s %10.4f %10.4f %12.6f %12d\n",
			row.Scheme, row.MissRatio, row.OccErr, row.ForcedRate, row.Evictions)
	}
	fprintf(w, "  %d epochs, %d reallocations, %d drift epochs, floor %d lines\n",
		r.Epochs, r.Reallocations, r.DriftEpochs, r.MinLines)
	fprintf(w, "  decision log (epoch, access, drift, targets):\n")
	for _, d := range r.Decisions {
		mark := " "
		if d.Drift {
			mark = "*"
		}
		ch := " "
		if d.Changed {
			ch = "!"
		}
		fprintf(w, "   %s%s e%-3d @%-9d div %.3f  %s\n",
			mark, ch, d.Epoch, d.Access, d.Divergence, targetsString(d.Targets))
	}
}

// targetsString renders a target vector, eliding the middle of very wide
// (replicated many-tenant) configurations.
func targetsString(tg []int) string {
	const maxShown = 8
	if len(tg) <= maxShown {
		return fmt.Sprint(tg)
	}
	head := fmt.Sprint(tg[:maxShown])
	return fmt.Sprintf("%s …+%d parts]", head[:len(head)-1], len(tg)-maxShown)
}
