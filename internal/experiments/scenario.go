package experiments

import (
	"fmt"
	"io"

	"fscache/internal/alloc"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/scenario"
	"fscache/internal/trace"
)

// Scenario experiment: run one declarative scenario spec (internal/scenario)
// under FS and the PF/Vantage baselines on identical access streams, and
// counterfactually re-rank the FS run's recorded decision trace under each
// baseline. The result is the ROADMAP item 5 comparison table: per-scheme
// occupancy error, miss ratio and forced-eviction rate, plus per-baseline
// divergent-eviction rates against the recorded FS decisions.

// ScenarioMaxRecorded bounds the FS decision trace kept in memory per
// scenario run; decisions beyond it are counted but dropped, and the
// counterfactual rates describe the recorded prefix.
const ScenarioMaxRecorded = 1 << 16

// ScenarioRow is one scheme's outcome on the scenario's access stream.
type ScenarioRow struct {
	Scheme string
	// MissRatio is misses/accesses after warmup.
	MissRatio float64
	// OccErr is the time-averaged mean relative occupancy error
	// |actual−target|/target over live partitions with nonzero targets,
	// sampled every 64 accesses after warmup.
	OccErr float64
	// ForcedRate is forced evictions per eviction after warmup.
	ForcedRate float64
	// Evictions counts post-warmup evictions.
	Evictions uint64
}

// ScenarioResult is the per-scenario comparison table.
type ScenarioResult struct {
	Name     string
	Parts    int
	Lines    int
	Ways     int
	Accesses int
	// Emitted is the access count actually streamed (less than Accesses
	// only when churn killed every client with none scheduled to return).
	Emitted int
	Warmup  float64
	Churns  int
	Rows    []ScenarioRow
	// Recorded and Skipped report the FS decision trace size and the
	// decisions dropped by ScenarioMaxRecorded.
	Recorded int
	Skipped  uint64
	// Counterfactuals re-rank the recorded FS decisions: fs (the self-check
	// oracle, which must show zero divergence), pf and vantage.
	Counterfactuals []scenario.Counterfactual
}

// ScenarioSchemes are the schemes every scenario runs under, in order.
func ScenarioSchemes() []SchemeName {
	return []SchemeName{SchemeFS, SchemePF, SchemeVantage}
}

// RunScenario executes the spec under every scheme. dir resolves relative
// trace paths in the spec (usually the spec file's directory).
func RunScenario(spec *scenario.Spec, dir string) (*ScenarioResult, error) {
	comp, err := scenario.Compile(spec, dir)
	if err != nil {
		return nil, err
	}
	parts := comp.Parts()
	res := &ScenarioResult{
		Name:     spec.Name,
		Parts:    parts,
		Lines:    spec.Cache.Lines,
		Ways:     spec.Cache.Ways,
		Accesses: spec.Accesses,
		Warmup:   spec.Warmup,
		Churns:   len(spec.Churn),
	}

	var fsTrace *scenario.DecisionTrace
	for _, scheme := range ScenarioSchemes() {
		b := buildScenarioCache(spec, scheme, parts)
		var rec *scenario.Recorder
		if scheme == SchemeFS {
			rec = scenario.NewRecorder(b.Cache, b.FSFeedback, ScenarioMaxRecorded)
		}
		row, emitted := runScenarioScheme(spec, comp, b, rec, nil)
		res.Rows = append(res.Rows, row)
		res.Emitted = emitted
		if rec != nil {
			fsTrace = rec.Trace()
			res.Recorded = len(fsTrace.Decisions)
			res.Skipped = rec.Skipped()
		}
	}

	self := fsTrace.ReplayFS()
	// The self-replay is the lockstep oracle for the decision-trace path:
	// any divergence means the recorder dropped an operand the FS rule
	// consumed, so the whole counterfactual table would be untrustworthy.
	// Fail the experiment instead of printing a poisoned table.
	if self.Divergent != 0 {
		return nil, fmt.Errorf("scenario %s: FS self-replay diverged on %d of %d recorded decisions",
			spec.Name, self.Divergent, self.Decisions)
	}
	res.Counterfactuals = append(res.Counterfactuals,
		self,
		scenario.NewPFReplayer(parts).Replay(fsTrace),
		scenario.NewVantageReplayer(parts).Replay(fsTrace),
	)
	return res, nil
}

// buildScenarioCache builds the spec's cache under one scheme.
func buildScenarioCache(spec *scenario.Spec, scheme SchemeName, parts int) *Built {
	return Build(CacheSpec{
		Lines:  spec.Cache.Lines,
		Ways:   spec.Cache.Ways,
		Array:  Array16Way,
		Rank:   futility.CoarseLRU, // the hardware-realistic default
		Scheme: scheme,
		Parts:  parts,
		Seed:   spec.Seed,
	})
}

// runScenarioScheme streams the scenario into one built cache. With a nil
// allocator the spec's shares set the targets and churn events reset them.
// Otherwise the allocator is the sole target authority: every access is
// observed, fresh epoch targets are installed as soon as they appear, and
// churn is ignored — the allocator notices dead tenants through decayed
// sample counts and reallocates their capacity itself.
func runScenarioScheme(spec *scenario.Spec, comp *scenario.Compiled, b *Built, rec *scenario.Recorder, a *alloc.Allocator) (ScenarioRow, int) {
	parts := comp.Parts()
	var targets []int
	if a == nil {
		targets = comp.Targets(spec.Cache.Lines, comp.InitialLive())
	} else {
		targets = a.Targets()
	}
	b.SetTargets(targets)

	// A recorded run carries an observer from its first access, though it
	// records only from warmAt: recorded Candidate.Futility values come from
	// the coarse ranker's CDF, which only a pipeline that is being observed
	// calibrates (core.DecisionObserver), and the counterfactual replays are
	// meant to see a CDF that warm-up calibrated.
	if rec != nil {
		b.Cache.SetDecisionObserver(func([]core.Candidate, int, int, bool) {})
	}
	stream := comp.NewStream(spec.Cache.Lines)
	warmAt := int(spec.Warmup * float64(spec.Accesses))
	emitted := 0
	occSum, occN := 0.0, 0
	var op scenario.Op
	for stream.Next(&op) {
		if op.Kind == scenario.OpChurn {
			if a == nil {
				targets = op.Targets
				b.SetTargets(targets)
			}
			continue
		}
		if emitted == warmAt {
			b.Cache.ResetStats()
			if rec != nil {
				b.Cache.SetDecisionObserver(rec.Observe)
			}
		}
		b.Cache.Access(op.Access.Addr, op.Part, trace.NoNextUse)
		if a != nil {
			a.Observe(op.Part, op.Access.Addr)
			if tg, ok := a.PollTargets(); ok {
				targets = tg
				b.SetTargets(targets)
			}
		}
		emitted++
		if emitted > warmAt && emitted%64 == 0 {
			occSum += occErr(b.Cache.Sizes(), targets)
			occN++
		}
	}
	b.Cache.SetDecisionObserver(nil)

	row := ScenarioRow{Scheme: string(schemeName(b))}
	var hits, misses, forced uint64
	for p := 0; p < parts; p++ {
		s := b.Cache.Stats(p)
		hits += s.Hits
		misses += s.Misses
		forced += s.ForcedEvict
		row.Evictions += s.Evictions
	}
	// Scheme-private pseudo-partitions (Vantage's unmanaged region) never
	// own lines, but forced-eviction accounting follows the decision
	// partition — include them.
	for p := parts; p < b.TotalParts; p++ {
		s := b.Cache.Stats(p)
		forced += s.ForcedEvict
		row.Evictions += s.Evictions
	}
	if t := hits + misses; t > 0 {
		row.MissRatio = float64(misses) / float64(t)
	}
	if row.Evictions > 0 {
		row.ForcedRate = float64(forced) / float64(row.Evictions)
	}
	if occN > 0 {
		row.OccErr = occSum / float64(occN)
	}
	return row, emitted
}

// schemeName recovers the display name from the built scheme handles.
func schemeName(b *Built) SchemeName {
	switch {
	case b.FSFeedback != nil:
		return SchemeFS
	case b.Vantage != nil:
		return SchemeVantage
	default:
		return SchemePF
	}
}

// occErr returns the mean relative occupancy error |size−target|/target
// over partitions with nonzero targets (zero-target partitions are dead
// tenants washing out; their absolute size is reported through churn tests
// instead).
func occErr(sizes, targets []int) float64 {
	sum, n := 0.0, 0
	for p, t := range targets {
		if t <= 0 {
			continue
		}
		d := sizes[p] - t
		if d < 0 {
			d = -d
		}
		sum += float64(d) / float64(t)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Print implements Printable.
func (r *ScenarioResult) Print(w io.Writer) {
	fprintf(w, "Scenario %s: %d lines, %d-way, %d partitions, %d accesses (warmup %.0f%%, %d churn events)\n",
		r.Name, r.Lines, r.Ways, r.Parts, r.Emitted, r.Warmup*100, r.Churns)
	fprintf(w, "  %-10s %10s %10s %12s %12s\n", "scheme", "missratio", "occ-err", "forced-rate", "evictions")
	for _, row := range r.Rows {
		fprintf(w, "  %-10s %10.4f %10.4f %12.6f %12d\n",
			row.Scheme, row.MissRatio, row.OccErr, row.ForcedRate, row.Evictions)
	}
	fprintf(w, "  counterfactual re-ranking of %d recorded FS decisions (%d dropped by cap):\n",
		r.Recorded, r.Skipped)
	fprintf(w, "  %-10s %10s %10s %12s %12s\n", "scheme", "divergent", "div-rate", "part-div", "forced-rate")
	for _, cf := range r.Counterfactuals {
		name := cf.Scheme
		if name == "fs" {
			name = "fs(self)"
		}
		fprintf(w, "  %-10s %10d %10.4f %12.4f %12.6f\n",
			name, cf.Divergent, cf.DivergenceRate(), cf.PartDivergenceRate(), cf.ForcedRate())
	}
}
