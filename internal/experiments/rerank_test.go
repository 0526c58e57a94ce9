package experiments

import (
	"strings"
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// rerankedRun drives a real FS cache (feedback controller, CoarseLRU
// ranking, H3-indexed 16-way array — the construction the scenario runner
// uses, less its measuring reference) over a skewed multi-partition workload
// with a reranker installed from the first access, recording from it if
// recording is set, and returns the reranker and the cache's eviction count.
func rerankedRun(t *testing.T, parts, lines, accesses, limit int, recording bool) (*reranker, uint64) {
	t.Helper()
	const seed = 0xfee1500d
	fs := core.NewFSFeedback(parts, core.FSFeedbackConfig{})
	coarse := futility.NewCoarseTS(lines, parts)
	cache := core.New(core.Config{
		Array:  cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, xrand.Mix64(seed^0xa77a)),
		Ranker: coarse,
		Scheme: fs,
		Parts:  parts,
	})
	// Uneven targets so the controller drives distinct alphas per partition
	// (equal alphas would make the FS rule trivially tie-free).
	targets := make([]int, parts)
	rest := lines
	for p := 0; p < parts-1; p++ {
		targets[p] = lines / (2 << p)
		rest -= targets[p]
	}
	targets[parts-1] = rest
	cache.SetTargets(targets)

	r := newReranker(cache, fs, coarse, limit)
	r.recording = recording
	cache.SetDecisionObserver(r.observe)

	rng := xrand.New(seed)
	zipfs := make([]*xrand.Zipf, parts)
	for p := range zipfs {
		zipfs[p] = xrand.NewZipf(xrand.New(xrand.Mix64(seed^uint64(p+1))), 0.9, 4*lines)
	}
	for i := 0; i < accesses; i++ {
		p := rng.Intn(parts)
		addr := uint64(p+1)<<40 | uint64(zipfs[p].Next())
		cache.Access(addr, p, trace.NoNextUse)
	}
	var evictions uint64
	for p := 0; p < parts; p++ {
		evictions += cache.Stats(p).Evictions
	}
	return r, evictions
}

// perturbAlpha makes the FS row read partition part's α scaled by factor
// until the test ends.
func perturbAlpha(t *testing.T, part int, factor float64) {
	t.Helper()
	var buf []float64
	fsAlphas = func(fs *core.FSFeedback) []float64 {
		buf = append(buf[:0], fs.Alphas()...)
		buf[part] *= factor
		return buf
	}
	t.Cleanup(func() { fsAlphas = (*core.FSFeedback).Alphas })
}

// TestReplayFSSelfConsistency is the acceptance self-test: re-ranking each
// of an FS cache's decisions under the FS rule must reproduce every victim
// bit-exactly — zero divergent evictions. Anything else means the operands
// the observer reads (raw futility, the live alpha) do not determine the
// decision, i.e. the re-ranker drifted from core.FSFeedback.Decide.
func TestReplayFSSelfConsistency(t *testing.T) {
	r, evictions := rerankedRun(t, 4, 1024, 60_000, ScenarioMaxRecorded, true)
	cf := r.rows[0]
	if cf.Decisions == 0 {
		t.Fatal("run re-ranked no decisions (no evictions happened?)")
	}
	if cf.Decisions != evictions || r.skipped != 0 {
		t.Fatalf("re-ranked %d and skipped %d of %d decisions", cf.Decisions, r.skipped, evictions)
	}
	if cf.Divergent != 0 || cf.DivergentPart != 0 {
		t.Fatalf("FS self-replay diverged on %d/%d decisions (%d across partitions)",
			cf.Divergent, cf.Decisions, cf.DivergentPart)
	}
}

// TestSelfCheckCatchesPerturbedAlpha shows the FS row is an oracle that can
// fail: with one partition's α misread, the re-ranked FS victims diverge,
// and RunScenario refuses to print the table.
func TestSelfCheckCatchesPerturbedAlpha(t *testing.T) {
	perturbAlpha(t, 0, 4)
	t.Run("observer", func(t *testing.T) {
		r, _ := rerankedRun(t, 4, 1024, 60_000, ScenarioMaxRecorded, true)
		if cf := r.rows[0]; cf.Divergent == 0 {
			t.Fatalf("FS row shows no divergence over %d decisions with partition 0's α scaled ×4", cf.Decisions)
		}
	})
	t.Run("RunScenario", func(t *testing.T) {
		_, err := RunScenario(loadScenarioSpec(t, "zipf-drift.yaml"))
		if err == nil || !strings.Contains(err.Error(), "FS self-replay diverged") {
			t.Fatalf("RunScenario error = %v, want the self-replay divergence error", err)
		}
	})
}

// TestReplayBaselines re-ranks an FS run under the PF and Vantage rules.
// The test pins structural properties, not divergence magnitudes (those are
// scenario results, printed by fstables): every rule sees every decision,
// PF never reports forced evictions, and rates stay in [0, 1].
func TestReplayBaselines(t *testing.T) {
	r, _ := rerankedRun(t, 4, 1024, 60_000, ScenarioMaxRecorded, true)
	fs, pf, v := r.rows[0], r.rows[1], r.rows[2]
	if pf.Decisions != fs.Decisions || v.Decisions != fs.Decisions {
		t.Fatalf("pf re-ranked %d and vantage %d of %d decisions", pf.Decisions, v.Decisions, fs.Decisions)
	}
	if pf.Forced != 0 {
		t.Errorf("pf reported %d forced evictions; PF has no forced path", pf.Forced)
	}
	for _, cf := range []Counterfactual{pf, v} {
		if cf.DivergentPart > cf.Divergent {
			t.Errorf("%s partition divergence %d exceeds victim divergence %d", cf.Scheme, cf.DivergentPart, cf.Divergent)
		}
	}
	for _, rate := range []float64{pf.DivergenceRate(), v.DivergenceRate(), v.ForcedRate()} {
		if rate < 0 || rate > 1 {
			t.Fatalf("rate %v out of [0, 1]", rate)
		}
	}
	// Re-ranking runs on the miss path, so it must not allocate; leaving
	// the vectors zeroed after each decision keeps the rows exact.
	cands := []core.Candidate{
		{Line: 3, Part: 0, Futility: 0.5, Raw: 7},
		{Line: 9, Part: 2, Futility: 0.9, Raw: 3},
	}
	before := fs.Decisions
	if n := testing.AllocsPerRun(100, func() { r.observe(cands, 1, 0, false) }); n != 0 {
		t.Fatalf("observe allocates %v times a decision", n)
	}
	if r.rows[0].Decisions == before {
		t.Fatal("observe re-ranked nothing (past the cap?)")
	}
	for p := range r.actual {
		if r.actual[p] != 0 || r.targets[p] != 0 {
			t.Fatalf("partition %d left at actual %d, target %d after a decision", p, r.actual[p], r.targets[p])
		}
	}
}

// TestRecorderBound pins the re-ranking cap: decisions past it are counted
// as skipped, and no row re-ranks more than the cap.
func TestRecorderBound(t *testing.T) {
	const limit = 64
	r, evictions := rerankedRun(t, 4, 1024, 60_000, limit, true)
	for _, cf := range r.rows {
		if cf.Decisions != limit {
			t.Fatalf("%s re-ranked %d decisions, want the %d cap", cf.Scheme, cf.Decisions, limit)
		}
	}
	if r.skipped == 0 || limit+r.skipped != evictions {
		t.Fatalf("skipped %d past the cap of %d, want the rest of %d decisions", r.skipped, limit, evictions)
	}
}

// TestRerankerCalibratesBeforeRecording runs a reranker that never starts
// recording: it re-ranks nothing, yet it has queried the coarse ranker's
// futility for every partition, as it must through warm-up so that the PF
// and Vantage rules later read a CDF calibrated from the first access.
func TestRerankerCalibratesBeforeRecording(t *testing.T) {
	r, evictions := rerankedRun(t, 4, 1024, 60_000, ScenarioMaxRecorded, false)
	if evictions == 0 {
		t.Fatal("the run evicted nothing")
	}
	for _, cf := range r.rows {
		if cf.Decisions != 0 {
			t.Fatalf("%s re-ranked %d decisions before recording", cf.Scheme, cf.Decisions)
		}
	}
	if r.skipped != 0 {
		t.Fatalf("skipped %d decisions before recording", r.skipped)
	}
	for p := 0; p < 4; p++ {
		if !r.coarse.Calibrated(p) {
			t.Fatalf("partition %d: the reranker never queried its futility", p)
		}
	}
}
