package scenario

// Compilation: a validated Spec expands into per-partition clients (one
// partition per client after Replicate expansion) and a Stream — a
// deterministic interleaving of every live client's access stream ordered
// by virtual arrival time, with phase shifts, diurnal modulation, client
// starts and tenant churn applied at fixed fractions of the emitted access
// count. Fractions of the run, not virtual time, are the event clock:
// virtual time only orders the interleaving, so two compiles of the same
// spec agree bit-for-bit on which access lands where.

import (
	"container/heap"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"fscache/internal/alloc"
	"fscache/internal/trace"
	"fscache/internal/workload"
	"fscache/internal/xrand"
)

// Client is one expanded tenant: partition i of the compiled scenario.
type Client struct {
	// Name is the spec name, suffixed with the replica index when the
	// entry is replicated ("tenant#3").
	Name string
	// Part is the partition index.
	Part int
	// Share is the tenant's capacity weight while live.
	Share float64
	// Class is the serving-layer SLO class ("g" or "b").
	Class string

	spec *ClientSpec
}

// Compiled is a scenario ready to stream.
type Compiled struct {
	Spec *Spec
	// Clients has one entry per partition, in partition order.
	Clients []Client

	// traces caches loaded replay files by resolved path.
	traces map[string][]trace.Access
}

// Compile expands spec (already validated by Parse or Validate) for
// streaming. dir resolves relative trace paths (typically the spec file's
// directory; "" means the working directory).
func Compile(spec *Spec, dir string) (*Compiled, error) {
	c := &Compiled{Spec: spec, traces: map[string][]trace.Access{}}
	for i := range spec.Clients {
		cs := &spec.Clients[i]
		n := cs.Replicate
		if n <= 0 {
			n = 1
		}
		for r := 0; r < n; r++ {
			name := cs.Name
			if cs.Replicate > 1 {
				name = fmt.Sprintf("%s#%d", cs.Name, r)
			}
			c.Clients = append(c.Clients, Client{
				Name:  name,
				Part:  len(c.Clients),
				Share: cs.Share,
				Class: cs.Class,
				spec:  cs,
			})
		}
		if cs.Workload.Trace != "" {
			path := cs.Workload.Trace
			if !filepath.IsAbs(path) {
				path = filepath.Join(dir, path)
			}
			if _, ok := c.traces[path]; !ok {
				accs, err := loadTrace(path)
				if err != nil {
					return nil, fmt.Errorf("scenario %s: client %s: %w", spec.Name, cs.Name, err)
				}
				c.traces[path] = accs
			}
			cs.Workload.Trace = path
		}
	}
	return c, nil
}

// Parts returns the compiled partition count.
func (c *Compiled) Parts() int { return len(c.Clients) }

// Targets apportions lines across the live clients proportional to their
// shares (largest-remainder rounding; dead clients get zero, so their
// lines wash out of the cache live). live must have Parts() entries.
func (c *Compiled) Targets(lines int, live []bool) []int {
	if len(live) != len(c.Clients) {
		panic("scenario: Targets live-mask length mismatch")
	}
	weights := make([]float64, len(c.Clients))
	total := 0.0
	for i, cl := range c.Clients {
		if live[i] {
			weights[i] = cl.Share
			total += cl.Share
		}
	}
	if total <= 0 {
		return make([]int, len(c.Clients))
	}
	return alloc.Apportion(lines, weights)
}

// InitialLive returns the live mask at access zero: clients whose first
// churn event is "create" — and clients with a deferred Start — begin dead.
func (c *Compiled) InitialLive() []bool {
	firstChurn := map[string]string{}
	for _, e := range c.Spec.Churn {
		if _, seen := firstChurn[e.Client]; !seen {
			firstChurn[e.Client] = e.Action
		}
	}
	live := make([]bool, len(c.Clients))
	for i, cl := range c.Clients {
		live[i] = firstChurn[cl.spec.Name] != "create" && cl.spec.Start == 0 //fslint:ignore style zero is the "starts immediately" sentinel
	}
	return live
}

// OpKind tags a stream operation.
type OpKind int

// Stream operations.
const (
	// OpAccess is one cache access by one client.
	OpAccess OpKind = iota
	// OpChurn is a tenant lifecycle change: the live mask and targets
	// changed; apply the new targets before the next access.
	OpChurn
)

// Op is one operation of a compiled scenario stream.
type Op struct {
	Kind OpKind
	// Access and Part are set for OpAccess.
	Access trace.Access
	Part   int
	// Live and Targets are set for OpChurn: the new live mask (aliased;
	// do not mutate) and the re-apportioned targets for Lines lines.
	Live    []bool
	Targets []int
	// Client names the churned client spec and Create its direction
	// (OpChurn only; implicit Start activations report Create=true).
	Client string
	Create bool
}

// Stream emits a compiled scenario as a deterministic operation sequence.
type Stream struct {
	c     *Compiled
	lines int
	total int

	emitted int
	now     float64 // virtual time of the last emitted access
	live    []bool
	heap    clientHeap
	clients []*streamClient

	// events is the merged churn + start + phase-boundary schedule in
	// emitted-access order.
	events []streamEvent
	nextEv int
}

type streamClient struct {
	idx     int
	arrival sampler
	gen     trace.Generator
	baseGen trace.Generator // saved across phases
	phase   int             // index into spec.Phases currently applied, -1 none
	nextAt  float64
	inHeap  bool
	rngSeed uint64
}

type streamEvent struct {
	at     int // emitted-access index at which the event fires
	client int // index into clients; -1 for spec-level churn by name
	name   string
	kind   string // "create", "destroy", "phase", "phaseEnd"
	phase  int
}

// NewStream builds the operation stream for lines cache lines. Equal
// (spec, lines) yield bit-identical streams.
func (c *Compiled) NewStream(lines int) *Stream {
	return c.NewStreamSeeded(lines, c.Spec.Seed)
}

// NewStreamSeeded is NewStream with an explicit seed replacing the spec's,
// for running several decorrelated interleavings of one compiled scenario
// (e.g. one per load-generator worker). Streams built from the same
// Compiled share only immutable data and may run concurrently.
func (c *Compiled) NewStreamSeeded(lines int, seed uint64) *Stream {
	s := &Stream{
		c:     c,
		lines: lines,
		total: c.Spec.Accesses,
		live:  c.InitialLive(),
	}
	root := xrand.Mix64(seed ^ 0xf5ca1e5ca1e5ca1e)
	for i := range c.Clients {
		cl := &c.Clients[i]
		seed := xrand.Mix64(root ^ uint64(i+1)*0x9e3779b97f4a7c15)
		sc := &streamClient{
			idx:     i,
			arrival: newSampler(cl.spec.Arrival, xrand.New(xrand.Mix64(seed^0xa55a))),
			phase:   -1,
			rngSeed: seed,
		}
		sc.baseGen = c.generatorFor(cl, cl.spec.Workload, seed)
		sc.gen = sc.baseGen
		s.clients = append(s.clients, sc)
		if s.live[i] {
			sc.nextAt = s.gap(sc)
			s.push(sc)
		}
	}
	s.buildSchedule()
	return s
}

// generatorFor builds the access generator for one client and workload
// (the workload differs from the spec's during a scan-storm phase).
func (c *Compiled) generatorFor(cl *Client, w WorkloadSpec, seed uint64) trace.Generator {
	switch {
	case w.Trace != "":
		return &tagGenerator{
			gen: trace.NewSliceGenerator(c.traces[w.Trace]),
			// Disjoint replay address spaces per partition, mirroring the
			// workload generators' thread tagging.
			tag: uint64(cl.Part+1) << 48,
		}
	case w.Profile != "":
		p, err := workload.ByName(w.Profile)
		if err != nil {
			panic("scenario: " + err.Error())
		}
		return p.Shrunk(w.Shrink).NewGenerator(seed, cl.Part)
	default:
		return mixProfile(cl.Name, w).NewGenerator(seed, cl.Part)
	}
}

// mixProfile converts an inline mix into a workload.Profile.
func mixProfile(name string, w WorkloadSpec) workload.Profile {
	p := workload.Profile{Name: name, MemPerKI: w.MemPerKI}
	for _, m := range w.Mix {
		var k workload.PatternKind
		switch m.Kind {
		case "zipf":
			k = workload.Zipf
		case "stream":
			k = workload.Stream
		case "cycle":
			k = workload.Cycle
		case "uniform":
			k = workload.Uniform
		default:
			panic("scenario: unvalidated mix kind " + m.Kind)
		}
		p.Mix = append(p.Mix, workload.Pattern{Kind: k, Lines: m.Lines, Theta: m.Theta, Weight: m.Weight})
	}
	return p
}

// tagGenerator offsets a replayed trace into a partition-private address
// space so replicated replay clients do not share lines.
type tagGenerator struct {
	gen trace.Generator
	tag uint64
}

func (g *tagGenerator) Next() trace.Access {
	a := g.gen.Next()
	a.Addr ^= g.tag
	return a
}

// buildSchedule merges churn events, deferred starts and phase boundaries
// into one emitted-access-ordered schedule. Positions are floor(frac *
// total); equal positions fire in schedule order (churn first, then
// starts, then phase boundaries) — a fixed, documented order.
func (s *Stream) buildSchedule() {
	for _, e := range s.c.Spec.Churn {
		s.events = append(s.events, streamEvent{
			at: int(e.At * float64(s.total)), client: -1, name: e.Client, kind: e.Action,
		})
	}
	for i := range s.clients {
		cl := &s.c.Clients[i]
		if cl.spec.Start > 0 {
			s.events = append(s.events, streamEvent{
				at: int(cl.spec.Start * float64(s.total)), client: i, name: cl.Name, kind: "create",
			})
		}
		for pi := range cl.spec.Phases {
			p := &cl.spec.Phases[pi]
			s.events = append(s.events, streamEvent{
				at: int(p.From * float64(s.total)), client: i, name: cl.Name, kind: "phase", phase: pi,
			})
			s.events = append(s.events, streamEvent{
				at: int(p.To * float64(s.total)), client: i, name: cl.Name, kind: "phaseEnd", phase: pi,
			})
		}
	}
	// Stable sort by position, preserving the build order above at ties.
	// Insertion sort keeps it dependency-free and the schedule is tiny.
	for i := 1; i < len(s.events); i++ {
		for j := i; j > 0 && s.events[j].at < s.events[j-1].at; j-- {
			s.events[j], s.events[j-1] = s.events[j-1], s.events[j]
		}
	}
}

// Next writes the next operation into op and reports whether one was
// produced. The stream ends after the spec's access budget is emitted, or
// early if every client goes dead with no future activation scheduled.
func (s *Stream) Next(op *Op) bool {
	if s.emitted >= s.total {
		return false
	}
	// Fire every event scheduled at or before the current position.
	for s.nextEv < len(s.events) && s.events[s.nextEv].at <= s.emitted {
		ev := s.events[s.nextEv]
		s.nextEv++
		if changed, create := s.applyEvent(ev); changed {
			op.Kind = OpChurn
			op.Live = s.live
			op.Targets = s.c.Targets(s.lines, s.live)
			op.Client = ev.name
			op.Create = create
			return true
		}
	}
	if s.heap.Len() == 0 {
		// Everyone is dead; skip forward to the next activation, if any.
		for s.nextEv < len(s.events) {
			if ev := s.events[s.nextEv]; ev.kind == "create" {
				s.emitted = ev.at
				return s.Next(op)
			}
			s.nextEv++
		}
		return false
	}
	sc := s.heap[0]
	s.now = sc.nextAt
	a := sc.gen.Next()
	op.Kind = OpAccess
	op.Access = a
	op.Part = sc.idx
	s.emitted++
	sc.nextAt = s.now + s.gap(sc)
	heap.Fix(&s.heap, 0)
	return true
}

// gap draws the client's next inter-arrival gap, applying the active
// phase's rate scale and the diurnal curve at the current run position.
func (s *Stream) gap(sc *streamClient) float64 {
	g := sc.arrival.next()
	cl := s.c.Clients[sc.idx].spec
	if sc.phase >= 0 {
		g /= cl.Phases[sc.phase].RateScale
	}
	if d := cl.Diurnal; d.Amplitude > 0 {
		progress := float64(s.emitted) / float64(s.total)
		g /= 1 + d.Amplitude*sin2pi(progress/d.Period)
	}
	return g
}

// applyEvent mutates stream state for one schedule entry and reports
// whether the live set changed (and, if so, the churn direction).
func (s *Stream) applyEvent(ev streamEvent) (changed, create bool) {
	switch ev.kind {
	case "create", "destroy":
		on := ev.kind == "create"
		any := false
		for i, sc := range s.clients {
			if ev.client >= 0 && i != ev.client {
				continue
			}
			if ev.client < 0 && s.c.Clients[i].spec.Name != ev.name {
				continue
			}
			if s.live[i] == on {
				continue
			}
			s.live[i] = on
			any = true
			if on {
				// A (re)created client re-enters the interleaving at the
				// current virtual time with a fresh first gap.
				sc.nextAt = s.now
				sc.nextAt += s.gap(sc)
				s.push(sc)
			} else {
				s.remove(sc)
			}
		}
		return any, on
	case "phase":
		sc := s.clients[ev.client]
		cl := &s.c.Clients[ev.client]
		p := &cl.spec.Phases[ev.phase]
		sc.phase = ev.phase
		if mod, ok := phaseWorkload(cl.spec.Workload, p); ok {
			seed := xrand.Mix64(sc.rngSeed ^ uint64(ev.phase+1)*0x2545f4914f6cdd1d)
			sc.gen = s.c.generatorFor(cl, mod, seed)
		}
		return false, false
	case "phaseEnd":
		sc := s.clients[ev.client]
		if sc.phase == ev.phase {
			sc.phase = -1
			sc.gen = sc.baseGen
		}
		return false, false
	}
	panic("scenario: unknown schedule event " + ev.kind)
}

// phaseWorkload derives the workload a phase runs: a pure scan for scan
// storms, a theta-drifted copy of the mix for zipf drift. The boolean
// reports whether the workload differs from the base at all (rate-only
// phases keep the base generator, preserving its pattern positions).
func phaseWorkload(base WorkloadSpec, p *PhaseSpec) (WorkloadSpec, bool) {
	if p.ScanLines > 0 {
		return WorkloadSpec{
			Mix:      []PatternSpec{{Kind: "stream", Lines: p.ScanLines, Weight: 1}},
			MemPerKI: scanMemPerKI(base),
		}, true
	}
	if p.ThetaDrift != 0 { //fslint:ignore style zero means "no drift requested", never a computed value
		drifted := false
		mod := base
		mod.Mix = append([]PatternSpec(nil), base.Mix...)
		for i := range mod.Mix {
			if mod.Mix[i].Kind == "zipf" {
				mod.Mix[i].Theta += p.ThetaDrift
				if mod.Mix[i].Theta < 0.05 {
					mod.Mix[i].Theta = 0.05
				}
				drifted = true
			}
		}
		return mod, drifted
	}
	return base, false
}

// scanMemPerKI picks the scan phase's memory intensity: the base mix's
// when it has one, a streaming-workload default otherwise.
func scanMemPerKI(base WorkloadSpec) int {
	if base.MemPerKI > 0 {
		return base.MemPerKI
	}
	return 60
}

// sin2pi returns sin(2πx).
func sin2pi(x float64) float64 { return math.Sin(2 * math.Pi * x) }

// loadTrace reads an FST2 trace file's accesses.
func loadTrace(path string) ([]trace.Access, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var t trace.Trace
	if _, err := t.ReadFrom(f); err != nil {
		return nil, fmt.Errorf("read trace %s: %w", path, err)
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("trace %s is empty", path)
	}
	return t.Accesses, nil
}

// clientHeap orders live clients by next virtual arrival time, breaking
// ties toward the lower partition index so the interleaving is total.
type clientHeap []*streamClient

func (h clientHeap) Len() int { return len(h) }
func (h clientHeap) Less(i, j int) bool {
	if h[i].nextAt != h[j].nextAt { //fslint:ignore style exact tie detection; ties fall through to the index order
		return h[i].nextAt < h[j].nextAt
	}
	return h[i].idx < h[j].idx
}
func (h clientHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *clientHeap) Push(x any)   { *h = append(*h, x.(*streamClient)) }
func (h *clientHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

func (s *Stream) push(sc *streamClient) {
	if sc.inHeap {
		return
	}
	sc.inHeap = true
	heap.Push(&s.heap, sc)
}

func (s *Stream) remove(sc *streamClient) {
	if !sc.inHeap {
		return
	}
	for i, h := range s.heap {
		if h == sc {
			heap.Remove(&s.heap, i)
			break
		}
	}
	sc.inHeap = false
}
