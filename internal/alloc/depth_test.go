package alloc

import (
	"testing"

	"fscache/internal/xrand"
)

// depthStreams are reference streams over footprints given in sampled lines
// (scaled by the sampling rate, so every shift sees the same pressure on a
// depth-d profiler): reuse concentrated inside d, a cyclic scan that only
// reuses between d and 2d, a stream that never reuses, and a working set that
// jumps elsewhere half way.
func depthStreams(d int, shift uint) []depthStream {
	lines := func(n int) uint64 { return uint64(n) << shift }
	zipf := xrand.NewZipf(xrand.New(3), 0.9, int(lines(4*d)))
	return []depthStream{
		{"zipf", func(int, *xrand.Rand) uint64 { return uint64(zipf.Next()) }},
		{"scan", func(i int, _ *xrand.Rand) uint64 { return uint64(i) % lines(3*d/2) }},
		{"cold", func(i int, _ *xrand.Rand) uint64 { return uint64(i) }},
		{"phase", func(i int, rng *xrand.Rand) uint64 {
			if i < depthRefs/2 {
				return rng.Uint64() % lines(d/2)
			}
			return 1<<32 | rng.Uint64()%lines(3*d/2)
		}},
	}
}

type depthStream struct {
	name string
	next func(i int, rng *xrand.Rand) uint64
}

const depthRefs = 12000

// By LRU inclusion a profiler's tags are the most recent sampled lines at
// any depth, so everything a reader confined to sampled distance d can see —
// hist[:d], the counts, and hitCurve on any grid that ends by d — must not
// depend on tags past d. That is what lets the Allocator stop its profilers
// at the deepest distance its curves read.
func TestProfilerDepthIsInvisibleBelowIt(t *testing.T) {
	const d = 48
	for _, shift := range []uint{0, 3} {
		for _, stream := range depthStreams(d, shift) {
			name, next := stream.name, stream.next
			shallow, deep := NewProfiler(d, shift, 9), NewProfiler(2*d, shift, 9)
			rng := xrand.New(17)
			for i := 0; i < depthRefs; i++ {
				a := next(i, rng)
				shallow.Touch(a)
				deep.Touch(a)
				if i%4096 == 4095 {
					shallow.Decay()
					deep.Decay()
				}
				if shallow.SampledCount() != deep.SampledCount() || shallow.Offered() != deep.Offered() {
					t.Fatalf("%s, shift %d, ref %d: sampled/offered %d/%d at depth %d, %d/%d at %d", name, shift, i,
						shallow.SampledCount(), shallow.Offered(), d, deep.SampledCount(), deep.Offered(), 2*d)
				}
				for b := 0; b < d; b++ {
					if shallow.hist[b] != deep.hist[b] {
						t.Fatalf("%s, shift %d, ref %d: hist[%d] = %d at depth %d, %d at %d", name, shift, i,
							b, shallow.hist[b], d, deep.hist[b], 2*d)
					}
				}
				for _, chunk := range []int{1, 5, 64} {
					n := (((d + 1) << shift) - 1) / chunk // the last grid point within sampled distance d
					s, g := shallow.hitCurve(chunk, n), deep.hitCurve(chunk, n)
					for c := range s {
						if s[c] != g[c] {
							t.Fatalf("%s, shift %d, ref %d: hitCurve(%d, %d)[%d] = %d at depth %d, %d at %d", name, shift, i,
								chunk, n, c, s[c], d, g[c], 2*d)
						}
					}
				}
			}
			// The comparison means something only if the deeper profiler did
			// see reuses the shallow one could not.
			var below uint64
			for _, n := range deep.hist[d:] {
				below += n
			}
			if (name == "scan" || name == "phase") && (below == 0 || shallow.Far() <= deep.Far()) {
				t.Fatalf("%s, shift %d: %d reuses past depth %d, far %d against %d: the stream never left the shallow profiler",
					name, shift, below, d, shallow.Far(), deep.Far())
			}
		}
	}
}

// An out-of-range partition must panic before Observe takes the mutex: the
// server recovers panics per connection, and a mutex left locked would hang
// every later sampled request instead of costing one connection.
func TestObservePanicLeavesAllocatorUsable(t *testing.T) {
	a := New(Config{Parts: 2, Lines: 4096, SampleShift: 1, Seed: 42})
	var sampled uint64
	for xrand.Mix64(sampled^a.salt)&a.mask != 0 {
		sampled++
	}
	for _, part := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Observe(%d, …) did not panic", part)
				}
			}()
			a.Observe(part, sampled)
		}()
		if !a.mu.TryLock() {
			t.Fatalf("Observe(%d, …) panicked holding the mutex: the next sampled access would block for good", part)
		}
		a.mu.Unlock()
	}
	a.Observe(1, sampled)
	a.PollTargets(1)
	a.Flush()
	if log, _ := a.Log(); len(log) != 1 || log[0].Access != 1 || log[0].Targets[0] != 0 {
		t.Fatalf("after the panics the one access, by partition 1, should be all the allocator saw: %+v", log)
	}
}
