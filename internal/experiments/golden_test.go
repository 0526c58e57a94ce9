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

// TestGoldenEquivalence is the replacement pipeline's behavior lock: the
// printed output of Table 2 and Fig. 2a at bench scale must stay
// byte-identical across performance refactors of the access path (buffer
// reuse, devirtualized rankers, iterative treap, incremental CDF). The
// goldens were generated before the zero-allocation rework and prove the
// optimized pipeline replays the exact same simulation.
//
// The zipf-drift scenario table pins what no other golden reaches: the
// counterfactual pf and vantage rows re-rank recorded Candidate.Futility
// values, so they move when the coarse ranker's CDF is calibrated by a
// different set of queries even though every FS decision stays the same.
// Its golden was generated from the tree before the raw-only FS decision
// path existed.
func TestGoldenEquivalence(t *testing.T) {
	scale := goldenScale()
	cases := []struct {
		name   string
		render func() string
	}{
		{"table2_bench.golden", func() string {
			var buf bytes.Buffer
			Table2(scale).Print(&buf)
			return buf.String()
		}},
		{"fig2a_bench.golden", func() string {
			var buf bytes.Buffer
			Fig2a(scale, "mcf").Print(&buf)
			return buf.String()
		}},
		{"scenario_zipf_drift.golden", func() string {
			spec, dir := loadScenarioSpec(t, "zipf-drift.yaml")
			res, err := RunScenario(spec, dir)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res.Print(&buf)
			return buf.String()
		}},
	}
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
