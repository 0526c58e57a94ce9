package experiments

import (
	"io"

	"fscache/internal/alloc"
	"fscache/internal/futility"
	"fscache/internal/sim"
	"fscache/internal/trace"
)

// Complete capacity-management stack (§II-A): an allocation policy decides
// sizes, an enforcement scheme realizes them. This experiment runs a
// heterogeneous 4-thread mix under three stacks —
//
//	equal targets + FS          (no utility information)
//	UCP-style utility + FS      (UMON miss curves + alloc.MaxHits lookahead)
//	unmanaged                   (no enforcement at all)
//
// and reports throughput. The utility policy should beat the equal split by
// taking capacity from streaming threads (flat miss curves) and giving it
// to reuse-heavy ones, with FS enforcing the chosen sizes.

// UtilRow is one stack's outcome.
type UtilRow struct {
	Stack      string
	Throughput float64
	IPCs       []float64
	Targets    []int
}

// UtilResult collects the comparison.
type UtilResult struct {
	Scale   Scale
	Benches []string
	Rows    []UtilRow
}

// UtilBenches is the heterogeneous mix: two cache-friendly threads, two
// streamers.
var UtilBenches = []string{"mcf", "gromacs", "lbm", "libquantum"}

// Util runs the comparison.
func Util(scale Scale) UtilResult {
	res := UtilResult{Scale: scale, Benches: UtilBenches}
	parts := len(UtilBenches)

	// Per-thread traces, shared across stacks for paired comparison.
	traces := make([]*trace.Trace, parts)
	for t, bench := range UtilBenches {
		gen := profileGenerator(scale, bench, seedStream(scale.Seed, "util"), t)
		traces[t] = sim.BuildL2Trace(gen, sim.NewL1(scale.L1Lines), scale.TraceLen)
	}

	equal := make([]int, parts)
	alloc.EvenSplit(equal, scale.L2Lines)

	res.Rows = append(res.Rows,
		runUtilCase(scale, "equal+fs", SchemeFS, equal, traces),
		runUtilCase(scale, "utility+fs", SchemeFS, utilTargets(scale.L2Lines, traces), traces),
		runUtilCase(scale, "unmanaged", SchemeUnmanaged, equal, traces),
	)
	return res
}

// utilTargets shadows each thread's L2 stream with a UMON (shadow tags see
// the stream the shared cache would see) and allocates lines/umonWays lines
// per monitor way by alloc.MaxHits, every thread floored at lines/64. lines
// must be a multiple of umonWays, as every Scale's L2Lines is.
func utilTargets(lines int, traces []*trace.Trace) []int {
	chunk := lines / umonWays
	cv := &alloc.Curves{
		Chunk:    chunk,
		NChunk:   umonWays,
		Hits:     make([][]uint64, len(traces)),
		Accesses: make([]uint64, len(traces)),
		Live:     make([]bool, len(traces)),
	}
	floors := make([]int, len(traces))
	for t, tr := range traces {
		var u umon
		for i := range tr.Accesses {
			u.observe(tr.Accesses[i].Addr)
		}
		cv.Hits[t] = u.curve()
		cv.Accesses[t] = uint64(len(tr.Accesses))
		cv.Live[t] = true
		floors[t] = (lines/64 + chunk - 1) / chunk
	}
	targets := alloc.MaxHits{}.Allocate(cv, floors)
	for t := range targets {
		targets[t] *= chunk
	}
	return targets
}

const (
	umonWays = 32 // curve resolution: one point per way
	umonSets = 64 // tag stacks every address folds onto
)

// umon is a UCP utility monitor: umonSets fully-LRU stacks of umonWays tags
// with hit counters per recency position, so curve()[w] counts the hits the
// thread would have had with w ways.
type umon struct {
	stacks [umonSets][]uint64 // most recent first
	hits   [umonWays]uint64   // hits at stack position i (needs ≥ i+1 ways)
}

func (u *umon) observe(addr uint64) {
	set := addr * 0x9e3779b97f4a7c15 >> 40 & (umonSets - 1)
	stack := u.stacks[set]
	for i, t := range stack {
		if t == addr {
			u.hits[i]++
			copy(stack[1:i+1], stack[:i])
			stack[0] = addr
			return
		}
	}
	if len(stack) < umonWays {
		stack = append(stack, 0)
	}
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = addr
	u.stacks[set] = stack
}

// curve returns the cumulative hits with w = 0..umonWays ways.
func (u *umon) curve() []uint64 {
	out := make([]uint64, umonWays+1)
	for i, h := range u.hits {
		out[i+1] = out[i] + h
	}
	return out
}

func runUtilCase(scale Scale, stack string, scheme SchemeName, targets []int, traces []*trace.Trace) UtilRow {
	b := Build(CacheSpec{
		Lines:  scale.L2Lines,
		Array:  Array16Way,
		Rank:   futility.CoarseLRU,
		Scheme: scheme,
		Parts:  len(traces),
		Seed:   seedStream(scale.Seed, "util"+stack),
	})
	b.SetTargets(targets)
	results := sim.NewMulticore(b.Cache, traces).Run()
	row := UtilRow{Stack: stack, Targets: targets}
	for _, r := range results {
		row.IPCs = append(row.IPCs, r.IPC())
		row.Throughput += r.IPC()
	}
	return row
}

// Print renders the comparison.
func (r UtilResult) Print(w io.Writer) {
	fprintf(w, "Capacity-management stack (%s scale): mix %v\n", r.Scale.Name, r.Benches)
	fprintf(w, "%-12s %10s   per-thread IPC (targets)\n", "stack", "thruput")
	for _, row := range r.Rows {
		fprintf(w, "%-12s %10.4f  ", row.Stack, row.Throughput)
		for i, ipc := range row.IPCs {
			fprintf(w, " %.3f(%d)", ipc, row.Targets[i])
		}
		fprintf(w, "\n")
	}
}
