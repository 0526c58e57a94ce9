package determinism

import (
	"testing"

	"fscache/internal/lint/analysis/analysistest"
)

func Test(t *testing.T) {
	// Scope the contract to testdata package "a"; package "b" stays out,
	// proving non-simulation packages are untouched.
	a := New([]string{"a"})
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
	if len(defaultSimPackages) != len(want) {
		t.Fatalf("defaultSimPackages has %d entries, want %d", len(defaultSimPackages), len(want))
	}
	for _, p := range defaultSimPackages {
		if !want[p] {
			t.Errorf("unexpected simulation package %q", p)
		}
	}
}
