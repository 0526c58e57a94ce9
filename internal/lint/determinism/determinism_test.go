package determinism_test

import (
	"testing"

	"fscache/internal/lint/analysis/analysistest"
	"fscache/internal/lint/determinism"
)

func Test(t *testing.T) {
	// Scope the contract to testdata package "a"; package "b" stays out,
	// proving non-simulation packages are untouched.
	a := determinism.New([]string{"a"})
	analysistest.Run(t, "testdata", a, "a", "b")
}

func TestDefaultScope(t *testing.T) {
	// The shipped analyzer must cover every simulation package named in
	// the determinism contract.
	want := map[string]bool{
		"fscache/internal/core":        true,
		"fscache/internal/sim":         true,
		"fscache/internal/futility":    true,
		"fscache/internal/recency":     true,
		"fscache/internal/baselines":   true,
		"fscache/internal/cachearray":  true,
		"fscache/internal/experiments": true,
		"fscache/internal/faultinject": true,
		"fscache/internal/oracle":      true,
		"fscache/internal/difftest":    true,
		"fscache/internal/shardcache":  true,
		"fscache/internal/scenario":    true,
		"fscache/internal/alloc":       true,
	}
	if len(determinism.DefaultSimPackages) != len(want) {
		t.Fatalf("DefaultSimPackages has %d entries, want %d", len(determinism.DefaultSimPackages), len(want))
	}
	for _, p := range determinism.DefaultSimPackages {
		if !want[p] {
			t.Errorf("unexpected simulation package %q", p)
		}
	}
}
