package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"fscache/internal/alloc"
	"fscache/internal/scenario"
)

// loadScenarioSpec reads one committed example spec.
func loadScenarioSpec(t *testing.T, name string) (*scenario.Spec, string) {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "scenarios")
	path := filepath.Join(dir, name)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("committed scenario missing: %v", err)
	}
	ld, err := scenario.LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	return ld.Spec, ld.Dir
}

// Acceptance: on the committed zipf-drift scenario the online allocator
// must beat static equal-split targets on aggregate miss ratio, and the
// mid-run phase change (theta drift starting at 30% of the stream) must be
// followed by a reallocation within a bounded number of epochs. Fully
// deterministic: the spec pins the seed and the allocator is seeded from it.
func TestAllocBeatsStaticOnZipfDrift(t *testing.T) {
	spec, dir := loadScenarioSpec(t, "zipf-drift.yaml")
	res, err := RunScenarioAlloc(spec, dir, "phase")
	if err != nil {
		t.Fatal(err)
	}
	if res.Alloc.MissRatio >= res.Static.MissRatio {
		t.Fatalf("online allocator (%.4f) must beat the static split (%.4f)",
			res.Alloc.MissRatio, res.Static.MissRatio)
	}

	// The drift begins at 0.3 × accesses. Decay halves stale curves every
	// epoch, so the phase-adaptive objective must reallocate within four
	// epochs of the onset.
	driftAt := uint64(0.3 * float64(spec.Accesses))
	epochLen := uint64(2 * spec.Cache.Lines)
	deadline := driftAt + 4*epochLen
	found := false
	for _, d := range res.Decisions {
		if d.Access > driftAt && d.Access <= deadline && d.Changed {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no reallocation within %d accesses of the drift onset at %d; decisions: %+v",
			deadline-driftAt, driftAt, res.Decisions)
	}
	if res.Reallocations == 0 || res.Epochs == 0 {
		t.Fatalf("allocator never worked: %d epochs, %d reallocations", res.Epochs, res.Reallocations)
	}
}

// Every shippable objective must clear the floor/capacity/divergence gates
// on the drifting spec — this is the `make alloc` smoke in miniature.
func TestAllocObjectivesClearGates(t *testing.T) {
	spec, dir := loadScenarioSpec(t, "zipf-drift.yaml")
	for _, obj := range []string{"utility", "maxmin", "qos"} {
		res, err := RunScenarioAlloc(spec, dir, obj)
		if err != nil {
			t.Fatalf("%s: %v", obj, err)
		}
		if res.Epochs == 0 {
			t.Fatalf("%s: no epoch closed, so no decision was gated", obj)
		}
	}
}

// The gate RunScenarioAlloc applies to the decision log fails a target
// below the floor and a budget overrun, and passes dead partitions.
func TestCheckDecisions(t *testing.T) {
	const lines, floor = 1024, 64
	for _, c := range []struct {
		name    string
		targets []int
		ok      bool
	}{
		{"within", []int{512, 448, 64}, true},
		{"dead", []int{960, 0, 64}, true},
		{"below floor", []int{960, 63, 1}, false},
		{"negative", []int{1024, -64, 64}, false},
		{"over budget", []int{512, 448, 128}, false},
	} {
		log := []alloc.Decision{{Epoch: 1, Targets: []int{512, 256, 256}}, {Epoch: 2, Targets: c.targets}}
		if err := checkDecisions(log, lines, floor); (err == nil) != c.ok {
			t.Errorf("%s %v: err %v, want ok=%v", c.name, c.targets, err, c.ok)
		}
	}
}

// Unknown objectives surface as errors, not panics.
func TestAllocUnknownObjective(t *testing.T) {
	spec, dir := loadScenarioSpec(t, "zipf-drift.yaml")
	if _, err := RunScenarioAlloc(spec, dir, "bogus"); err == nil {
		t.Fatal("expected an error for an unknown objective")
	}
}
