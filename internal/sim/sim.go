package sim

import (
	"container/heap"
	"fmt"

	"fscache/internal/core"
	"fscache/internal/trace"
)

// Table II's timing, in core cycles at 2 GHz.
const (
	l2Hit      = 8   // L2 access latency
	l1ToL2     = 4   // average NUCA L1-to-L2 network latency
	memLatency = 200 // zero-load memory latency
	// memCyclesPerLine is the memory-bandwidth occupancy of one 64 B line:
	// 32 GB/s at 2 GHz core clock moves 16 B/cycle → 4 cycles per line.
	memCyclesPerLine = 4
)

// ThreadResult reports one thread's first-pass execution.
type ThreadResult struct {
	// Instructions retired during the first pass over the thread's trace.
	Instructions uint64
	// Cycles to complete the first pass.
	Cycles uint64
	// Hits and Misses in the shared L2 during the first pass.
	Hits, Misses uint64
}

// IPC returns instructions per cycle.
func (r ThreadResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// MissRate returns the thread's L2 miss rate.
func (r ThreadResult) MissRate() float64 {
	t := r.Hits + r.Misses
	if t == 0 {
		return 0
	}
	return float64(r.Misses) / float64(t)
}

// Multicore replays per-thread L2 traces against a shared partitioned L2
// (one partition per thread) with timing feedback: each thread advances on
// its own clock, L2 and memory latencies delay its future accesses, and a
// single bandwidth-limited memory channel serializes line fills.
//
// Threads that finish their trace wrap around and keep running (keeping
// pressure on the shared cache) until every thread has completed its first
// pass; results are for first passes only — the standard multiprogrammed
// methodology.
type Multicore struct {
	cache    *core.Cache
	traces   []*trace.Trace
	results  []ThreadResult
	warmFrac float64
}

// NewMulticore builds a simulation of len(traces) threads; thread i maps to
// partition i of cache. Each trace must be non-empty; NextUse is used when
// present (OPT ranking). Latencies and memory bandwidth are Table II's.
func NewMulticore(cache *core.Cache, traces []*trace.Trace) *Multicore {
	if len(traces) == 0 {
		panic("sim: no threads")
	}
	if cache.Parts() < len(traces) {
		panicf("cache has %d partitions for %d threads", cache.Parts(), len(traces))
	}
	for i, tr := range traces {
		if tr.Len() == 0 {
			panicf("thread %d has an empty trace", i)
		}
	}
	return &Multicore{
		cache:   cache,
		traces:  traces,
		results: make([]ThreadResult, len(traces)),
	}
}

// SetWarmup excludes each thread's first frac of its trace from its
// reported result, and resets the cache's measurement statistics once every
// thread has crossed its warmup point — so occupancy means and eviction
// futility distributions describe the steady state, not the cold fill.
// frac must be in [0, 0.9].
func (m *Multicore) SetWarmup(frac float64) {
	if frac < 0 || frac > 0.9 {
		panic("sim: warmup fraction out of [0, 0.9]")
	}
	m.warmFrac = frac
}

// threadState is the per-thread replay cursor.
type threadState struct {
	id       int
	time     uint64 // thread-local cycle count
	pos      int    // next access index
	passDone bool
	warmed   bool
	base     ThreadResult // counters at the warmup point
	instrs   uint64
	hits     uint64
	misses   uint64
}

// eventQueue orders threads by local time (min-heap).
type eventQueue []*threadState

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(i, j int) bool  { return q[i].time < q[j].time }
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*threadState)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// Run executes the simulation and returns per-thread first-pass results.
func (m *Multicore) Run() []ThreadResult {
	q := make(eventQueue, 0, len(m.traces))
	warmLen := make([]int, len(m.traces))
	coldThreads := 0
	for i := range m.traces {
		ts := &threadState{id: i}
		if m.warmFrac > 0 {
			warmLen[i] = int(m.warmFrac * float64(m.traces[i].Len()))
			if warmLen[i] > 0 {
				coldThreads++
			} else {
				ts.warmed = true
			}
		} else {
			ts.warmed = true
		}
		q = append(q, ts)
	}
	heap.Init(&q)
	remaining := len(m.traces)
	var memFree uint64

	for remaining > 0 {
		ts := q[0]
		tr := m.traces[ts.id]
		a := tr.Accesses[ts.pos]
		nextUse := trace.NoNextUse
		if tr.NextUse != nil {
			nextUse = tr.NextUse[ts.pos]
		}

		// Execute the gap instructions, then the access instruction.
		ts.time += uint64(a.Gap) + 1
		res := m.cache.Access(a.Addr, ts.id, nextUse)
		lat := uint64(l1ToL2 + l2Hit)
		if res.Hit {
			ts.hits++
		} else {
			ts.misses++
			// Bandwidth-limited memory channel: the fill occupies the
			// channel for memCyclesPerLine starting when both the request
			// arrives and the channel is free.
			reqAt := ts.time + lat
			start := reqAt
			if memFree > start {
				start = memFree
			}
			memFree = start + memCyclesPerLine
			lat += (start - reqAt) + memLatency
		}
		ts.time += lat
		if !ts.passDone {
			ts.instrs += uint64(a.Gap) + 1
		}

		ts.pos++
		if !ts.warmed && ts.pos >= warmLen[ts.id] {
			ts.warmed = true
			ts.base = ThreadResult{
				Instructions: ts.instrs,
				Cycles:       ts.time,
				Hits:         ts.hits,
				Misses:       ts.misses,
			}
			coldThreads--
			if coldThreads == 0 {
				m.cache.ResetStats()
			}
		}
		if ts.pos == tr.Len() {
			ts.pos = 0
			if !ts.passDone {
				ts.passDone = true
				m.results[ts.id] = ThreadResult{
					Instructions: ts.instrs - ts.base.Instructions,
					Cycles:       ts.time - ts.base.Cycles,
					Hits:         ts.hits - ts.base.Hits,
					Misses:       ts.misses - ts.base.Misses,
				}
				remaining--
			}
		}
		heap.Fix(&q, 0)
	}
	return append([]ThreadResult(nil), m.results...)
}

// Cache exposes the shared L2 for post-run statistics (AEF, occupancy).
func (m *Multicore) Cache() *core.Cache { return m.cache }

// panicf formats a cold-path panic message out of line, keeping fmt calls
// (and their escaping arguments) out of the callers' bodies — fslint's
// allocfree rejects an inline panic(fmt.Sprintf(...)) on an //fs:allocfree path.
//
//go:noinline
func panicf(format string, args ...any) {
	panic("sim: " + fmt.Sprintf(format, args...))
}
