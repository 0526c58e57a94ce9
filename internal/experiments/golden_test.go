package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden regenerates the golden files from the current implementation:
//
//	go test ./internal/experiments -run 'TestGolden|TestFig2bcShape|TestFig7Shape' -update-golden
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

// shapeGolden names the registry experiments whose full sweep costs seconds
// even at bench scale. Their goldens pin the reduced sweeps that
// TestFig2bcShape and TestFig7Shape already run, and those tests check them.
var shapeGolden = map[string]bool{"fig2bc": true, "fig7": true}

// goldenFile is the golden a registry experiment is pinned by.
func goldenFile(id string) string { return id + "_bench.golden" }

// checkGolden compares a printed result with testdata/name, or rewrites the
// file under -update-golden.
func checkGolden(t *testing.T, name string, p Printable) {
	t.Helper()
	var buf bytes.Buffer
	p.Print(&buf)
	got := buf.String()
	if len(got) == 0 {
		t.Fatal("experiment printed nothing")
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
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
}

// TestGoldenEquivalence is the behavior lock: the printed output of every
// registry experiment at bench scale must stay byte-identical across
// refactors of the access path and of the experiment drivers. The table2 and
// fig2a goldens were generated before the zero-allocation rework; the rest
// were generated before the insertion-driven experiments were folded onto
// one driver, except fig2bc, fig7 and the tenant-churn alloc table, which
// were added later with the output unchanged.
//
// Every spec in examples/scenarios has a scenario table golden, so `make
// scenarios` is pinned row for row. The tables pin what no registry golden
// reaches: the counterfactual pf and vantage rows re-rank recorded
// Candidate.Futility values, so they move when the coarse ranker's CDF is
// calibrated by a different set of queries even though every FS decision
// stays the same; and flash-crowd and tenant-churn move partition
// populations under coarse ranking with an exact reference, which resizes
// its recency orders. The zipf-drift golden was generated from the tree
// before the raw-only FS decision path existed, the other six before the
// exact reference's orders shared one set of arrays. All seven run in about
// 4 s together (thousand-parts, the slowest, 1.4 s on a 2-vCPU host), so
// none is exempt. The two alloc tables are the two `make alloc` runs and pin
// the allocator-driven stream loop.
func TestGoldenEquivalence(t *testing.T) {
	scale := goldenScale()
	type goldenCase struct {
		name string
		run  func(t *testing.T) Printable
	}
	var cases []goldenCase
	for _, r := range Registry() {
		if shapeGolden[r.ID] {
			continue
		}
		r := r
		cases = append(cases, goldenCase{goldenFile(r.ID), func(*testing.T) Printable { return r.Run(scale) }})
	}
	allocRun := func(spec, objective string) func(t *testing.T) Printable {
		return func(t *testing.T) Printable {
			s, dir := loadScenarioSpec(t, spec)
			res, err := RunScenarioAlloc(s, dir, objective)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	specs, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.yaml"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no scenario specs: %v", err)
	}
	for _, path := range specs {
		spec := filepath.Base(path)
		name := "scenario_" + strings.ReplaceAll(strings.TrimSuffix(spec, ".yaml"), "-", "_") + ".golden"
		cases = append(cases, goldenCase{name, func(t *testing.T) Printable {
			res, err := RunScenario(loadScenarioSpec(t, spec))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}})
	}
	cases = append(cases,
		goldenCase{"alloc_zipf_drift_phase.golden", allocRun("zipf-drift.yaml", "phase")},
		goldenCase{"alloc_tenant_churn_utility.golden", allocRun("tenant-churn.yaml", "utility")},
	)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { checkGolden(t, tc.name, tc.run(t)) })
	}
}

// Every registry experiment arrives with a golden.
func TestGoldenCoversRegistry(t *testing.T) {
	for _, r := range Registry() {
		if _, err := os.Stat(filepath.Join("testdata", goldenFile(r.ID))); err != nil {
			t.Errorf("experiment %s has no golden: %v", r.ID, err)
		}
	}
}
