package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"
)

// Span tracing, from the benchmark's own files only: spans wrap the calls
// the load generators make into each layer's public functions. One request
// in 64 is traced; spans stay in memory until the run ends. End-to-end
// metrics never come from a traced trial.

const traceEvery = 64 // a power of two: the sampling test is a mask

// span is one timed call. Start and End are nanoseconds since the tracer's
// epoch; Parent indexes the same buffer (-1 for a request's root span); Req
// identifies the request all spans of one tree belong to.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Req    uint64
}

// spanBuf is one goroutine's private span log, so recording takes no lock.
type spanBuf struct {
	epoch time.Time
	spans []span
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

// begin opens a span and returns its index for end and for children.
func (b *spanBuf) begin(name string, parent int32, req uint64) int32 {
	b.spans = append(b.spans, span{Name: name, Start: b.now(), Parent: parent, Req: req})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) end(i int32) { b.spans[i].End = b.now() }

// tracer owns the per-goroutine buffers of one traced trial.
type tracer struct {
	workload string
	epoch    time.Time
	bufs     []*spanBuf
	// clockNS is the cost of one begin/end pair with nothing between them,
	// subtracted from span medians so that a 100 ns call is not reported as
	// 100 ns plus two clock reads.
	clockNS float64
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, epoch: time.Now()}
	b := &spanBuf{epoch: t.epoch}
	d := make([]float64, 0, 512)
	for range 512 {
		i := b.begin("", -1, 0)
		b.end(i)
		d = append(d, float64(b.spans[i].End-b.spans[i].Start))
	}
	t.clockNS = median(d)
	return t
}

// buf hands out a fresh buffer; call it once per goroutine before the clock
// starts.
func (t *tracer) buf() *spanBuf {
	b := &spanBuf{epoch: t.epoch, spans: make([]span, 0, 1<<16)}
	t.bufs = append(t.bufs, b)
	return b
}

func (t *tracer) count() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// selfTimes returns, for every span of one buffer, its duration minus the
// part of its interval that its direct children cover (children clipped to
// the parent, overlapping children counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		ks := kids[int32(i)]
		slices.SortFunc(ks, func(a, b int32) int { return int(spans[a].Start - spans[b].Start) })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] -= covered
	}
	return out
}

// byName collects, over all buffers, every span's duration and self time in
// nanoseconds keyed by span name.
func (t *tracer) byName() (dur, self map[string][]float64) {
	dur, self = map[string][]float64{}, map[string][]float64{}
	for _, b := range t.bufs {
		st := selfTimes(b.spans)
		for i, s := range b.spans {
			dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start))
			self[s.Name] = append(self[s.Name], float64(st[i]))
		}
	}
	return dur, self
}

// spanMedian is the median of xs less the tracer's own clock cost.
func (t *tracer) spanMedian(xs []float64) float64 {
	return max(median(xs)-t.clockNS, 0)
}

// writeSpans appends every span of t to w as one JSON object per line, with
// ids made unique across buffers.
func (t *tracer) writeSpans(w *bufio.Writer) error {
	enc := json.NewEncoder(w)
	base := 0
	for g, b := range t.bufs {
		for i, s := range b.spans {
			parent := -1
			if s.Parent >= 0 {
				parent = base + int(s.Parent)
			}
			err := enc.Encode(struct {
				Workload  string `json:"workload"`
				Goroutine int    `json:"goroutine"`
				ID        int    `json:"id"`
				Parent    int    `json:"parent"`
				Req       uint64 `json:"req"`
				Name      string `json:"name"`
				Start     int64  `json:"start_ns"`
				End       int64  `json:"end_ns"`
			}{t.workload, g, base + i, parent, s.Req, s.Name, s.Start, s.End})
			if err != nil {
				return err
			}
		}
		base += len(b.spans)
	}
	return nil
}

// spanFile accumulates the traced trials' spans and writes them at exit.
type spanFile struct {
	path    string
	tracers []*tracer
}

func (f *spanFile) add(t *tracer) {
	if f.path != "" {
		f.tracers = append(f.tracers, t)
	}
}

func (f *spanFile) flush() error {
	if f.path == "" {
		return nil
	}
	out, err := os.Create(f.path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	w := bufio.NewWriter(out)
	for _, t := range f.tracers {
		if err := t.writeSpans(w); err != nil {
			out.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := out.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
