package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates the golden files from the current implementation:
//
//	go test ./internal/experiments -run TestGoldenEquivalence -update-golden
//
// Goldens may only be refreshed when experiment *behavior* deliberately
// changes; performance work must leave them byte-identical (DESIGN.md §10).
var updateGolden = flag.Bool("update-golden", false, "rewrite golden experiment outputs")

// goldenScale mirrors the root package's benchScale: the reduced scale at
// which `go test -bench .` drives every figure. Golden equivalence is pinned
// at this scale so the test stays cheap enough for every CI run.
func goldenScale() Scale {
	return Scale{
		Name:           "bench",
		L2Lines:        8192,
		PartLines:      1024,
		SubjectLines:   256,
		TraceLen:       6000,
		AnalyticLines:  4096,
		Insertions:     60000,
		L1Lines:        128,
		WorkloadShrink: 8,
		Seed:           20140621,
	}
}

// goldenExempt names the registry experiments without a golden, on cost:
// each runs for seconds even at bench scale, and their shape tests
// (TestFig2bcShape, TestFig7Shape) already drive the same code.
var goldenExempt = map[string]bool{"fig2bc": true, "fig7": true}

// goldenFile is the golden a registry experiment is pinned by.
func goldenFile(id string) string { return id + "_bench.golden" }

// TestGoldenEquivalence is the behavior lock: the printed output of every
// registry experiment outside goldenExempt at bench scale must stay
// byte-identical across refactors of the access path and of the experiment
// drivers. The table2 and fig2a goldens were generated before the
// zero-allocation rework; the rest were generated before the
// insertion-driven experiments were folded onto one driver.
//
// The zipf-drift scenario table pins what no registry golden reaches: the
// counterfactual pf and vantage rows re-rank recorded Candidate.Futility
// values, so they move when the coarse ranker's CDF is calibrated by a
// different set of queries even though every FS decision stays the same.
// Its golden was generated from the tree before the raw-only FS decision
// path existed. The zipf-drift alloc table pins the allocator-driven
// stream loop.
func TestGoldenEquivalence(t *testing.T) {
	scale := goldenScale()
	type goldenCase struct {
		name   string
		render func() string
	}
	var cases []goldenCase
	for _, r := range Registry() {
		if goldenExempt[r.ID] {
			continue
		}
		r := r
		cases = append(cases, goldenCase{goldenFile(r.ID), func() string {
			var buf bytes.Buffer
			r.Run(scale).Print(&buf)
			return buf.String()
		}})
	}
	cases = append(cases,
		goldenCase{"scenario_zipf_drift.golden", func() string {
			spec, dir := loadScenarioSpec(t, "zipf-drift.yaml")
			res, err := RunScenario(spec, dir)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res.Print(&buf)
			return buf.String()
		}},
		goldenCase{"alloc_zipf_drift_phase.golden", func() string {
			spec, dir := loadScenarioSpec(t, "zipf-drift.yaml")
			res, err := RunScenarioAlloc(spec, dir, "phase")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res.Print(&buf)
			return buf.String()
		}},
	)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := tc.render()
			if len(got) == 0 {
				t.Fatal("experiment printed nothing")
			}
			path := filepath.Join("testdata", tc.name)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("output diverged from golden %s.\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// A new registry experiment must arrive with a golden or a named
// exemption, and an exemption must name a real experiment.
func TestGoldenCoversRegistry(t *testing.T) {
	exempt := 0
	for _, r := range Registry() {
		if goldenExempt[r.ID] {
			exempt++
			continue
		}
		if _, err := os.Stat(filepath.Join("testdata", goldenFile(r.ID))); err != nil {
			t.Errorf("experiment %s has no golden and is not in goldenExempt: %v", r.ID, err)
		}
	}
	if exempt != len(goldenExempt) {
		t.Errorf("goldenExempt %v names an experiment the registry does not have", goldenExempt)
	}
}
