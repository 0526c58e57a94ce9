package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fscache/internal/futility"
	"fscache/internal/sim"
	"fscache/internal/trace"
)

// TestParallelForDeterminism is the determinism contract's regression test:
// a grid run sequentially (one worker) and concurrently (GOMAXPROCS workers)
// must print byte-identical results. Any scheduling-order dependence — a
// shared RNG, unsorted map iteration, racy accumulation — shows up as a
// diff here, and as a race under `go test -race`.
func TestParallelForDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run too slow for -short")
	}
	scale := tiny()
	benches := []string{"mcf"}

	render := func(workers int) string {
		parallelWorkers = workers
		defer func() { parallelWorkers = 0 }()
		var buf bytes.Buffer
		Fig2bc(scale, benches).Print(&buf)
		return buf.String()
	}

	seq := render(1)
	par := render(runtime.GOMAXPROCS(0))
	if seq != par {
		t.Fatalf("parallelFor results depend on scheduling:\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
			seq, runtime.GOMAXPROCS(0), par)
	}
	if len(seq) == 0 {
		t.Fatal("Fig2bc printed nothing")
	}
}

// TestParallelDeterminismReusedBuffers locks the zero-allocation hot path's
// determinism: the replacement pipeline now reuses per-cache candidate and
// move buffers (zcache relocation chains, random-candidate dedup into the
// caller's slice, skewed-way scratch), so every buffer must be owned by
// exactly one cache. Cells running concurrently under parallelFor would
// corrupt each other through any accidentally shared slice; this sweep runs
// the same grid with 1 and 4 workers and requires byte-identical output.
// ArrayZ4 exercises the move buffer (a relocating walk), ArraySkew8 the
// walk's roots alone (a one-level zcache never relocates), ArrayRandom16 the
// dedup-into-dst candidate path.
func TestParallelDeterminismReusedBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run too slow for -short")
	}
	scale := tiny()
	arrays := []ArrayKind{ArrayZ4, ArrayRandom16, ArraySkew8}
	benches := []string{"mcf", "lbm"}

	render := func(workers int) string {
		parallelWorkers = workers
		defer func() { parallelWorkers = 0 }()
		out := make([]string, len(arrays))
		parallelFor(len(arrays), func(i int) {
			arr := arrays[i]
			traces := make([]*trace.Trace, len(benches))
			for th, bench := range benches {
				gen := profileGenerator(scale, bench, seedStream(scale.Seed, "bufdet"+bench), th)
				l1 := sim.NewL1(scale.L1Lines)
				traces[th] = sim.BuildL2Trace(gen, l1, scale.TraceLen)
			}
			b := Build(CacheSpec{
				Lines:  scale.PartLines * len(benches),
				Array:  arr,
				Rank:   futility.CoarseLRU,
				Scheme: SchemeFS,
				Parts:  len(benches),
				Seed:   seedStream(scale.Seed, "bufdet"+string(arr)),
			})
			targets := make([]int, len(benches))
			for th := range targets {
				targets[th] = scale.PartLines
			}
			b.SetTargets(targets)
			results := sim.NewMulticore(b.Cache, traces).Run()
			var sb strings.Builder
			fmt.Fprintf(&sb, "%s:", arr)
			for th, r := range results {
				fmt.Fprintf(&sb, " ipc=%.6f miss=%.6f occ=%.1f",
					r.IPC(), r.MissRate(), b.Cache.MeanOccupancy(th))
			}
			out[i] = sb.String()
		})
		return strings.Join(out, "\n")
	}

	seq := render(1)
	par := render(4)
	if seq != par {
		t.Fatalf("reused-buffer cells depend on scheduling:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s",
			seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("sweep produced no output")
	}
}
