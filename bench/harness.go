package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// Process-level accounting around a timed section: CPU from getrusage,
// allocation from runtime.MemStats, lock wait, GC and scheduler figures
// from runtime/metrics. One process runs both the load generator and the
// system under test, so these are totals of the two; cpu.loadgen and
// bench.loadgen_ns_per_op say how much is the generator's.

var resMetricNames = []string{
	"/sync/mutex/wait/total:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// resSample is one reading of the process counters.
type resSample struct {
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	numGC     uint32
	pauseNS   uint64
	mutexWait float64
	gcCPU     float64
	sched     *metrics.Float64Histogram
}

func sampleRes() resSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := resSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
	ms2 := make([]metrics.Sample, len(resMetricNames))
	for i, n := range resMetricNames {
		ms2[i].Name = n
	}
	metrics.Read(ms2)
	if ms2[0].Value.Kind() == metrics.KindFloat64 {
		s.mutexWait = ms2[0].Value.Float64()
	}
	if ms2[1].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms2[1].Value.Float64()
	}
	if ms2[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms2[2].Value.Float64Histogram()
		s.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return s
}

// heapAfterGC forces a collection and returns the live heap's span bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// resDelta is what one timed section cost the process.
type resDelta struct {
	cpuUS      float64
	mallocs    uint64
	bytes      uint64
	gcCycles   uint32
	gcPauseMS  float64
	mutexWaitS float64
	gcCPUS     float64
	schedP99US float64
}

func (a resSample) since(b resSample) resDelta {
	d := resDelta{
		cpuUS:      float64(a.cpu-b.cpu) / 1e3,
		mallocs:    a.mallocs - b.mallocs,
		bytes:      a.bytes - b.bytes,
		gcCycles:   a.numGC - b.numGC,
		gcPauseMS:  float64(a.pauseNS-b.pauseNS) / 1e6,
		mutexWaitS: a.mutexWait - b.mutexWait,
		gcCPUS:     a.gcCPU - b.gcCPU,
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		d.schedP99US = histDeltaQuantile(a.sched, b.sched, 0.99) * 1e6
	}
	return d
}

// histDeltaQuantile returns the q-quantile (upper bucket edge) of the
// samples a gained over b, or 0 when there were none.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range a.Counts {
		total += a.Counts[i] - b.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range a.Counts {
		seen += a.Counts[i] - b.Counts[i]
		if seen >= want {
			edge := a.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = a.Buckets[i]
			}
			return edge
		}
	}
	return a.Buckets[len(a.Buckets)-1]
}

// calibrate runs a fixed kernel — an xorshift stream steering a dependent
// pointer walk over an 8 MiB table, so that it feels a busy neighbour in the
// shared cache and memory the way the cache simulations do — and returns
// nanoseconds per step. It touches none of the code under test, so its
// drift between runs is the machine's, and a result is only as trustworthy
// as this number is steady.
func calibrate() float64 {
	const size = 1 << 21
	const steps = 1 << 17
	x := uint64(0x9e3779b97f4a7c15)
	if calibTable == nil {
		calibTable = make([]uint32, size)
		for i := range calibTable {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			calibTable[i] = uint32(x) % size
		}
	}
	per := make([]float64, 0, 5)
	for range 5 {
		p := uint32(0)
		start := time.Now()
		for range steps {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p = calibTable[(p+uint32(x))%size]
		}
		per = append(per, float64(time.Since(start))/steps)
		calibSink += p
	}
	return median(per)
}

var (
	calibTable []uint32 // built on first use, from the main goroutine
	calibSink  uint32   // keeps measured loops from being optimised away
)

// blockNS times fn, which performs opsPerBlock operations per call, blocks
// times and returns the median nanoseconds per operation.
func blockNS(blocks, opsPerBlock int, fn func()) float64 {
	per := make([]float64, blocks)
	for i := range per {
		start := time.Now()
		fn()
		per[i] = float64(time.Since(start)) / float64(opsPerBlock)
	}
	return median(per)
}
