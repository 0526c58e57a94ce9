package experiments

import (
	"fmt"
	"io"

	"fscache/internal/alloc"
	"fscache/internal/baselines"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/scenario"
	"fscache/internal/stats"
	"fscache/internal/trace"
)

// Scenario experiment: run one declarative scenario spec (internal/scenario)
// under FS and the PF/Vantage baselines on identical access streams, and
// re-rank each post-warm-up FS decision, as the FS run makes it, under each
// baseline. The result is the per-scenario comparison table: per-scheme
// occupancy error, miss ratio and forced-eviction rate, plus per-baseline
// divergent-eviction rates against the FS decisions.

// ScenarioMaxRecorded bounds the FS decisions re-ranked per scenario run;
// decisions beyond it are counted as skipped, and the counterfactual rates
// describe the re-ranked prefix.
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
	// Recorded and Skipped count the FS decisions re-ranked and those
	// skipped past ScenarioMaxRecorded.
	Recorded int
	Skipped  uint64
	// Counterfactuals re-rank the FS decisions: fs (the self-check oracle,
	// which must show zero divergence), pf and vantage.
	Counterfactuals []Counterfactual
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

	var rr *reranker
	for _, scheme := range ScenarioSchemes() {
		b := buildScenarioCache(spec, scheme, parts)
		var obs *reranker
		if scheme == SchemeFS {
			obs = newReranker(b.Cache, b.FSFeedback, b.Coarse, ScenarioMaxRecorded)
			rr = obs
		}
		row, emitted := runScenarioScheme(spec, comp, b, obs, nil)
		row.Scheme = string(scheme)
		res.Rows = append(res.Rows, row)
		res.Emitted = emitted
	}

	self := rr.rows[0]
	// The FS row is the lockstep oracle for the re-ranking: any divergence
	// means the observer missed an operand the FS rule consumed, so the
	// whole counterfactual table would be untrustworthy. Fail the
	// experiment instead of printing a poisoned table.
	if self.Divergent != 0 {
		return nil, fmt.Errorf("scenario %s: FS self-replay diverged on %d of %d recorded decisions",
			spec.Name, self.Divergent, self.Decisions)
	}
	res.Recorded = int(self.Decisions)
	res.Skipped = rr.skipped
	res.Counterfactuals = rr.rows[:]
	return res, nil
}

// Counterfactual aggregates one rule's agreement with the FS run's
// decisions.
type Counterfactual struct {
	// Scheme names the re-ranking scheme.
	Scheme string
	// Decisions is the number of re-ranked decisions.
	Decisions uint64
	// Divergent counts decisions where the rule's victim differs from FS's.
	Divergent uint64
	// DivergentPart counts decisions where even the victim's partition
	// differs — the coarser disagreement that moves occupancy.
	DivergentPart uint64
	// Forced counts decisions the rule marked forced (Vantage's isolation
	// breach; always zero for FS and PF).
	Forced uint64
}

// DivergenceRate returns Divergent/Decisions (0 when empty).
func (c Counterfactual) DivergenceRate() float64 {
	if c.Decisions == 0 {
		return 0
	}
	return float64(c.Divergent) / float64(c.Decisions)
}

// PartDivergenceRate returns DivergentPart/Decisions (0 when empty).
func (c Counterfactual) PartDivergenceRate() float64 {
	if c.Decisions == 0 {
		return 0
	}
	return float64(c.DivergentPart) / float64(c.Decisions)
}

// ForcedRate returns Forced/Decisions (0 when empty).
func (c Counterfactual) ForcedRate() float64 {
	if c.Decisions == 0 {
		return 0
	}
	return float64(c.Forced) / float64(c.Decisions)
}

// add counts one decision whose FS victim is cands[victim] and whose
// re-ranked victim is cands[pick].
func (c *Counterfactual) add(cands []core.Candidate, victim, pick int, forced bool) {
	c.Decisions++
	if pick != victim {
		c.Divergent++
		if cands[pick].Part != cands[victim].Part {
			c.DivergentPart++
		}
	}
	if forced {
		c.Forced++
	}
}

// fsAlphas reads the α vector the FS row re-ranks by. It is a variable so
// a test can perturb one partition's α and watch the self-check fail.
var fsAlphas = (*core.FSFeedback).Alphas

// reranker is the FS run's core.DecisionObserver: it answers "what would
// this rule have evicted here" for each post-warm-up decision as the cache
// makes it, under three rules, each given exactly what FS decided from —
// every candidate's raw timestamp distance, the live α, and the candidate
// partitions' actual and target sizes (pre-eviction: the observer fires
// after the scheme decides but before the eviction is applied). FS ranks by
// raw×α, PF and Vantage by the coarse futility plus sizes.
//
// FS decides on Raw alone, so the cache leaves Futility zero; the reranker
// ranks every candidate through CoarseTS.FutilityRaw, in list order, from the
// first access on, so PF and Vantage read a CDF calibrated from the start.
type reranker struct {
	cache     *core.Cache
	fs        *core.FSFeedback
	coarse    *futility.CoarseTS
	scored    []core.Candidate // cands with Futility filled in
	recording bool             // set at warm-up's end; decisions before only calibrate
	limit     uint64
	skipped   uint64
	// rows are the fs (self-check), pf and vantage counterfactuals.
	rows    [3]Counterfactual
	pf      *baselines.PF
	vantage *baselines.Vantage
	// actual and targets, the vectors pf and vantage are bound to, hold the
	// candidate partitions' sizes and targets during one decision and zero
	// everywhere else. Entry parts is Vantage's unmanaged pseudo-partition,
	// which no candidate lies in (the FS cache has no demotions), so Vantage
	// re-ranks in its most honest counterfactual form: each decision either
	// demote-evicts within aperture or is a forced eviction, the isolation
	// breach the paper quantifies.
	actual, targets []int
}

// newReranker builds the observer for an FS cache over coarse; decisions past
// limit are counted as skipped. Install r.observe before the first access and
// set recording when warm-up ends.
func newReranker(cache *core.Cache, fs *core.FSFeedback, coarse *futility.CoarseTS, limit int) *reranker {
	parts := cache.Parts()
	r := &reranker{
		cache:   cache,
		fs:      fs,
		coarse:  coarse,
		limit:   uint64(limit),
		rows:    [3]Counterfactual{{Scheme: "fs"}, {Scheme: "pf"}, {Scheme: "vantage"}},
		pf:      baselines.NewPF(parts),
		vantage: baselines.NewVantage(parts + 1),
		actual:  make([]int, parts+1),
		targets: make([]int, parts+1),
	}
	r.pf.Bind(r.actual[:parts], r.targets[:parts])
	r.vantage.Bind(r.actual, r.targets)
	return r
}

// observe implements core.DecisionObserver. Once scored is grown it allocates
// nothing: the rules read in place and every vector is the reranker's own.
func (r *reranker) observe(cands []core.Candidate, insertPart, victim int, _ bool) {
	r.scored = append(r.scored[:0], cands...)
	for i, c := range cands {
		r.scored[i].Futility, _ = r.coarse.FutilityRaw(c.Line, c.Part)
	}
	if !r.recording {
		return
	}
	if r.rows[0].Decisions >= r.limit {
		r.skipped++
		return
	}
	// This loop replicates core.FSFeedback.Decide operation for operation:
	// float64(Raw)*alpha, strict > comparison, first index winning ties.
	alphas := fsAlphas(r.fs)
	best, bestV := 0, -1.0
	for i := range cands {
		if v := float64(cands[i].Raw) * alphas[cands[i].Part]; v > bestV {
			bestV = v
			best = i
		}
	}
	r.rows[0].add(cands, victim, best, false)

	sizes, targets := r.cache.Sizes(), r.cache.Targets()
	for i := range cands {
		p := cands[i].Part
		r.actual[p], r.targets[p] = sizes[p], targets[p]
	}
	d := r.pf.Decide(r.scored, insertPart)
	r.rows[1].add(cands, victim, d.Victim, d.Forced)
	d = r.vantage.Decide(r.scored, insertPart)
	r.rows[2].add(cands, victim, d.Victim, d.Forced)
	for i := range cands {
		p := cands[i].Part
		r.actual[p], r.targets[p] = 0, 0
	}
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
// observed and polled with the loop's running count, fresh epoch targets
// are installed as soon as they appear, and churn is ignored — the
// allocator notices dead tenants through decayed sample counts and
// reallocates their capacity itself.
func runScenarioScheme(spec *scenario.Spec, comp *scenario.Compiled, b *Built, obs *reranker, a *alloc.Allocator) (ScenarioRow, int) {
	parts := comp.Parts()
	var targets []int
	if a == nil {
		targets = comp.Targets(spec.Cache.Lines, comp.InitialLive())
	} else {
		targets = a.Targets()
	}
	targets = b.SetCacheTargets(targets)

	// The re-ranker sees every decision and records from warmAt.
	if obs != nil {
		b.Cache.SetDecisionObserver(obs.observe)
	}
	stream := comp.NewStream(spec.Cache.Lines)
	warmAt := int(spec.Warmup * float64(spec.Accesses))
	emitted := 0
	occSum, occN := 0.0, 0
	var op scenario.Op
	for stream.Next(&op) {
		if op.Kind == scenario.OpChurn {
			if a == nil {
				targets = b.SetCacheTargets(op.Targets)
			}
			continue
		}
		if emitted == warmAt {
			b.Cache.ResetStats()
			if obs != nil {
				obs.recording = true
			}
		}
		b.Cache.Access(op.Access.Addr, op.Part, trace.NoNextUse)
		emitted++
		if a != nil {
			a.Observe(op.Part, op.Access.Addr)
			if tg, ok := a.PollTargets(uint64(emitted)); ok {
				targets = b.SetCacheTargets(tg)
			}
		}
		if emitted > warmAt && emitted%64 == 0 {
			// Zero-target partitions' absolute sizes are reported
			// through churn tests instead.
			e, _ := stats.OccupancyError(b.Cache.Sizes(), targets)
			occSum += e
			occN++
		}
	}

	var row ScenarioRow
	var hits, misses, forced uint64
	for p := 0; p < parts; p++ {
		s := b.Cache.Stats(p)
		hits += s.Hits
		misses += s.Misses
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
