package alloc_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"fscache/internal/alloc"
	"fscache/internal/scenario"
)

// New stops every profiler at the deepest sampled distance the chunk grid
// reads. Over the two scenario streams `make alloc` runs, under all four
// objectives, an allocator with profilers twice that deep must log the same
// decisions to the last bit: the tags it adds are ones no curve looks at.
func TestAllocatorDepthCannotChangeADecision(t *testing.T) {
	for _, name := range []string{"zipf-drift", "tenant-churn"} {
		ld, err := scenario.LoadSpec(filepath.Join("..", "..", "examples", "scenarios", name+".yaml"))
		if err != nil {
			t.Fatal(err)
		}
		comp, err := scenario.Compile(ld.Spec, ld.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, objective := range []string{"utility", "maxmin", "qos", "phase"} {
			var allocs [2]*alloc.Allocator
			for i := range allocs {
				// A config of its own each: objectives may carry state.
				cfg, err := comp.AllocConfig(objective)
				if err != nil {
					t.Fatal(err)
				}
				allocs[i] = alloc.NewDeepened(cfg, i+1)
			}
			stream := comp.NewStream(ld.Spec.Cache.Lines)
			var op scenario.Op
			for stream.Next(&op) {
				if op.Kind == scenario.OpChurn {
					continue
				}
				for _, a := range allocs {
					a.Observe(op.Part, op.Access.Addr)
				}
			}
			logAsBuilt, _ := allocs[0].Log()
			logDeeper, _ := allocs[1].Log()
			changes := 0
			for _, d := range logAsBuilt {
				if d.Changed {
					changes++
				}
			}
			if len(logAsBuilt) < 10 || changes < 2 {
				t.Fatalf("%s/%s: %d epochs, %d reallocations: too quiet a run to compare", name, objective, len(logAsBuilt), changes)
			}
			if len(logAsBuilt) != len(logDeeper) {
				t.Fatalf("%s/%s: %d decisions as built, %d with profilers twice as deep", name, objective, len(logAsBuilt), len(logDeeper))
			}
			for i := range logAsBuilt {
				if !reflect.DeepEqual(logAsBuilt[i], logDeeper[i]) {
					t.Fatalf("%s/%s: decision %d differs with profilers twice as deep:\nas built %+v\ndeeper   %+v",
						name, objective, i, logAsBuilt[i], logDeeper[i])
				}
			}
		}
	}
}
