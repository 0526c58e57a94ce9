package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"fscache/internal/alloc"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/scenario"
	"fscache/internal/shardcache"
	"fscache/internal/xrand"
)

// engineTarget is an in-process shardcache.Engine. A compiled spec (Comp)
// replaces the synthetic zipf mix with its streams and the 1:2:3 targets
// with its shares. An allocator (Alloc) is fed every access and polled by a
// background rebalancer, which closes its epochs on the engine's access
// count and installs their targets; scenario churn vectors are then ignored.
type engineTarget struct {
	scenario.Setup
	o     options
	parts int
	desc  string
	e     *shardcache.Engine
	rb    *shardcache.Rebalancer // nil without Alloc
}

func newEngineTarget(o options) (*engineTarget, error) {
	// Synthetic targets are proportional to partition index+1, summing
	// exactly to capacity, so the report has distinct per-partition setpoints.
	weights := make([]float64, synthParts)
	for p := range weights {
		weights[p] = float64(p + 1)
	}
	targets := alloc.Apportion(synthLines, weights)
	s, err := scenario.NewSetup(o.scenario, synthLines, synthWays, targets, o.alloc, o.seed)
	if err != nil {
		return nil, err
	}
	cfg := shardcache.Config{
		Lines:   s.Lines,
		Ways:    s.Ways,
		Stripes: o.stripes,
		Parts:   len(s.Targets),
		Ranking: futility.CoarseLRU,
		Seed:    o.seed,
	}
	if err := cfg.Validate(); err != nil {
		return nil, usageError{err}
	}
	t := &engineTarget{Setup: s, o: o, parts: cfg.Parts}
	if t.Comp != nil {
		t.desc = fmt.Sprintf("scenario %s (%d clients), ", t.Comp.Spec.Name, len(t.Comp.Clients))
	}
	t.desc += fmt.Sprintf("engine %d lines / %d ways / %d stripes, %d partitions, batch %d",
		t.Lines, t.Ways, o.stripes, t.parts, o.batch)
	t.e = shardcache.New(cfg)
	t.e.SetTargets(t.Targets)
	if t.Alloc != nil {
		t.rb = t.e.StartRebalancerSource(allocPoll, t.Alloc)
	}
	return t, nil
}

func (t *engineTarget) describe() string { return t.desc }

// latCap resolves quantiles to ~195ns; an access slower than 100µs lands in
// the top bucket.
func (t *engineTarget) latCap() time.Duration { return 100 * time.Microsecond }

func (t *engineTarget) worker(i int, _ *atomic.Bool) step {
	next := t.feed(i)
	if t.o.batch == 1 {
		return func() (int, time.Duration, bool) {
			addr, part := next()
			t0 := time.Now()
			t.e.Access(addr, part)
			lat := time.Since(t0)
			if t.Alloc != nil {
				t.Alloc.Observe(part, addr)
			}
			return 1, lat, true
		}
	}
	b := t.e.NewBatch()
	reqs := make([]shardcache.Access, t.o.batch)
	results := make([]core.AccessResult, t.o.batch)
	return func() (int, time.Duration, bool) {
		for j := range reqs {
			reqs[j].Addr, reqs[j].Part = next()
		}
		t0 := time.Now()
		b.Access(reqs, results)
		// Amortized per-access latency: the whole flush divided by its size,
		// recorded once per request, comparable with the unbatched path.
		lat := time.Since(t0) / time.Duration(len(reqs))
		if t.Alloc != nil {
			for _, r := range reqs {
				t.Alloc.Observe(r.Part, r.Addr)
			}
		}
		return len(reqs), lat, true
	}
}

// feed returns worker i's address source. Synthetic workers draw a zipf rank
// over a uniformly chosen partition. Scenario workers run their own reseeded
// interleaving of the compiled stream, cycled for the whole run; worker 0
// also applies tenant-churn target vectors to the live engine as its stream
// reaches them (other workers skip churn ops, so the target vector has one
// writer), unless the allocator owns the targets.
func (t *engineTarget) feed(i int) func() (uint64, int) {
	if t.Comp == nil {
		rng := xrand.New(xrand.Mix64(t.o.seed^0xf10ad) ^ xrand.Mix64(uint64(i+1)))
		zipf := xrand.NewZipf(rng, 0.9, 4*t.Lines)
		return func() (uint64, int) {
			part := rng.Intn(t.parts)
			// Mix64-finalized structured keys: raw keys that vary in only
			// their low bits can land in an H3 null space (an index bit whose
			// masks miss every varying key bit) and reach a fraction of the sets.
			return xrand.Mix64(uint64(part+1)<<24 + uint64(zipf.Next())), part
		}
	}
	seed := func(epoch uint64) uint64 {
		return xrand.Mix64(t.Comp.Spec.Seed ^ uint64(i+1)*0x9e3779b97f4a7c15 ^ epoch*0xbf58476d1ce4e5b9)
	}
	epoch := uint64(0)
	st := t.Comp.NewStreamSeeded(t.Lines, seed(0))
	var op scenario.Op
	return func() (uint64, int) {
		for {
			if !st.Next(&op) {
				epoch++
				st = t.Comp.NewStreamSeeded(t.Lines, seed(epoch))
				continue
			}
			if op.Kind == scenario.OpChurn {
				if i == 0 && t.Alloc == nil {
					t.e.SetTargets(op.Targets)
				}
				continue
			}
			// Mix64-finalize the structured scenario address (a bijection,
			// so client address spaces stay disjoint).
			return xrand.Mix64(op.Access.Addr), op.Part
		}
	}
}

func (t *engineTarget) finish(ops uint64) ([]partRow, []string, error) {
	if t.rb != nil {
		t.rb.Stop()
	}
	if err := t.e.CheckInvariants(); err != nil {
		return nil, nil, fmt.Errorf("engine invariants violated after run: %v", err)
	}
	snap := t.e.Snapshot()
	rows := make([]partRow, t.parts)
	for p := range rows {
		ps := &snap.Parts[p]
		aef := "-" // no measured eviction: Mean() would print 0, outside (0, 1]
		if ps.EvictFutility.N() > 0 {
			aef = strconv.FormatFloat(ps.AEF(), 'f', 4, 64)
		}
		rows[p] = partRow{
			target:  ps.Target,
			size:    ps.Size,
			meanOcc: ps.MeanOccupancy,
			miss:    ps.MissRate(),
			note:    fmt.Sprintf("aef %s over %d measured", aef, ps.EvictFutility.N()),
		}
	}
	notes := []string{fmt.Sprintf("engine: %d accesses", snap.Accesses)}
	if t.Alloc != nil {
		notes[0] += fmt.Sprintf(", %d rebalances", t.rb.Rebalances())
		notes = append(notes, t.allocNotes()...)
	}
	if snap.Accesses != ops {
		return rows, notes, fmt.Errorf("accounting: engine recorded %d accesses, workers issued %d", snap.Accesses, ops)
	}
	return rows, notes, nil
}

// allocNotes summarizes the allocator's run and its last decisions.
func (t *engineTarget) allocNotes() []string {
	log, _ := t.Alloc.Log()
	reallocs, drifts := 0, 0
	for _, d := range log {
		if d.Changed {
			reallocs++
		}
		if d.Drift {
			drifts++
		}
	}
	notes := []string{fmt.Sprintf("alloc %s: %d epochs, %d reallocations, %d drift epochs, %d installs; last decisions (drift *, changed !):",
		t.o.alloc, t.Alloc.Epoch(), reallocs, drifts, t.rb.Installs())}
	for _, d := range log[max(0, len(log)-8):] {
		mark, ch := " ", " "
		if d.Drift {
			mark = "*"
		}
		if d.Changed {
			ch = "!"
		}
		notes = append(notes, fmt.Sprintf(" %s%s e%-4d @%-10d div %.3f miss %.4f  %v",
			mark, ch, d.Epoch, d.Access, d.Divergence, d.MissRatio, d.Targets))
	}
	return notes
}
