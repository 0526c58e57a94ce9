package shardcache

import (
	"sync/atomic"
	"testing"
	"time"

	"fscache/internal/core"

	"fscache/internal/alloc"
	"fscache/internal/xrand"
)

// stubSource hands out one fixed target vector exactly once.
type stubSource struct {
	targets []int
	polled  bool
}

func (s *stubSource) PollTargets(uint64) ([]int, bool) {
	if s.polled {
		return nil, false
	}
	s.polled = true
	return append([]int(nil), s.targets...), true
}

// flipSource offers a and b in turn, a fresh vector on every poll: the
// busiest install cadence a source can drive.
type flipSource struct {
	a, b []int
	n    int
}

func (s *flipSource) PollTargets(uint64) ([]int, bool) {
	s.n++
	if s.n%2 == 0 {
		return s.a, true
	}
	return s.b, true
}

// countSource records the access count of its latest poll and offers no
// targets.
type countSource struct{ last atomic.Uint64 }

func (s *countSource) PollTargets(accesses uint64) ([]int, bool) {
	s.last.Store(accesses)
	return nil, false
}

// The count a rebalancer polls its source with is every access issued
// through the engine, whichever of Access, Batch.Access or Batch.Each issued
// it.
func TestRebalancerCountsEveryAccessPath(t *testing.T) {
	e := New(testConfig(4))
	e.SetTargets(testTargets())
	rng := xrand.New(21)
	reqs := make([]Access, 64)
	next := func() []Access {
		for i := range reqs {
			reqs[i] = Access{Addr: rng.Uint64() % 8192, Part: i % 3}
		}
		return reqs
	}
	var issued uint64
	for i := 0; i < 500; i++ {
		e.Access(rng.Uint64()%8192, i%3)
		issued++
	}
	b := e.NewBatch()
	results := make([]core.AccessResult, len(reqs))
	for i := 0; i < 20; i++ {
		b.Access(next(), results)
		issued += uint64(len(reqs))
		b.Each(next(), func(h Locked, j int32) { h.Access(reqs[j].Addr, reqs[j].Part) })
		issued += uint64(len(reqs))
	}

	src := &countSource{}
	r := e.StartRebalancerSource(time.Millisecond, src)
	//fslint:ignore determinism rebalancer test: bounded wall-clock wait for the ticker-driven poll
	deadline := time.Now().Add(2 * time.Second)
	//fslint:ignore determinism rebalancer test: bounded wall-clock wait for the ticker-driven poll
	for r.Rebalances() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	if r.Rebalances() == 0 {
		t.Fatal("the rebalancer never polled its source")
	}
	if got := src.last.Load(); got != issued {
		t.Fatalf("rebalancer polled with %d accesses, %d issued", got, issued)
	}
}

// A rebalancer with a target source must install polled targets on its next
// tick and then leave them in force.
func TestRebalancerInstallsSourceTargets(t *testing.T) {
	e := New(testConfig(4))
	e.SetTargets(testTargets())
	want := []int{1024, 1024, 2048}
	r := e.StartRebalancerSource(time.Millisecond, &stubSource{targets: want})
	//fslint:ignore determinism rebalancer test: bounded wall-clock wait for the ticker-driven install
	deadline := time.Now().Add(2 * time.Second)
	//fslint:ignore determinism rebalancer test: bounded wall-clock wait for the ticker-driven install
	for r.Installs() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	if r.Installs() != 1 {
		t.Fatalf("installs = %d, want exactly 1 (source fires once)", r.Installs())
	}
	got := e.Targets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("targets after install = %v, want %v", got, want)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after source-driven rebalancing: %v", err)
	}
}

// End-to-end: the online allocator observes the engine's access stream and
// its epoch decisions reach the engine through the rebalancer's poll. The
// partition with the dominant working set must end up with the dominant
// target — measurement driving enforcement, not static policy.
func TestRebalancerAllocatorClosesLoop(t *testing.T) {
	cfg := testConfig(4)
	e := New(cfg)
	e.SetTargets(testTargets())

	a := alloc.New(alloc.Config{
		Parts:         cfg.Parts,
		Lines:         cfg.Lines,
		EpochAccesses: 8192,
		SampleShift:   1,
		Seed:          7,
	})
	r := e.StartRebalancerSource(time.Millisecond, a)

	// Partition 2 runs a 3000-line working set, partitions 0/1 tiny ones —
	// the opposite of the static testTargets split.
	rng := xrand.New(55)
	ws := []int{100, 100, 3000}
	//fslint:ignore determinism rebalancer test: bounded wall-clock wait for the allocator's targets to propagate
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		p := i % len(ws)
		addr := uint64(p)<<32 | rng.Uint64()%uint64(ws[p])
		e.Access(addr, p)
		a.Observe(p, addr)
		if i%4096 == 0 {
			tg := e.Targets()
			if r.Installs() > 0 && tg[2] > tg[0] && tg[2] > tg[1] {
				break
			}
			//fslint:ignore determinism rebalancer test: bounded wall-clock escape hatch
			if !time.Now().Before(deadline) {
				t.Fatalf("allocator targets never reached the engine: engine %v, alloc %v, installs %d",
					tg, a.Targets(), r.Installs())
			}
		}
	}
	r.Stop()
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after allocator-driven rebalancing: %v", err)
	}
}
