package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse drives the spec parser (JSON or the YAML subset) with arbitrary
// bytes, seeded with every committed example spec. Nothing may panic; a spec
// Parse accepts must Compile (or fail with an error) and its initial Targets
// must give every partition a non-negative share summing to the cache's
// lines, or to zero when no client starts live.
func FuzzParse(f *testing.F) {
	const dir = "../../examples/scenarios"
	seeds, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed specs in %s: %v", dir, err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data, "fuzz")
		if err != nil {
			return
		}
		for _, c := range spec.Clients {
			// Replay traces resolve against the examples directory; a path
			// that leaves it could name a device that never ends.
			if p := c.Workload.Trace; filepath.IsAbs(p) || strings.Contains(p, "..") {
				t.Skip("trace path outside the examples directory")
			}
		}
		comp, err := Compile(spec, dir)
		if err != nil {
			return
		}
		live := comp.InitialLive()
		targets := comp.Targets(spec.Cache.Lines, live)
		if len(targets) != comp.Parts() {
			t.Fatalf("%d targets for %d partitions", len(targets), comp.Parts())
		}
		sum, anyLive := 0, false
		for i, tg := range targets {
			if tg < 0 {
				t.Fatalf("partition %d target %d", i, tg)
			}
			sum += tg
			anyLive = anyLive || live[i]
		}
		want := 0
		if anyLive {
			want = spec.Cache.Lines
		}
		if sum != want {
			t.Fatalf("targets sum to %d, want %d", sum, want)
		}
	})
}
