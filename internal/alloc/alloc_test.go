package alloc

import (
	"testing"

	"fscache/internal/xrand"
)

// driven is an allocator fed the way the scenario sim loop feeds one: every
// access is observed and then polled with the running access count, so an
// epoch closes right after the access that ends it.
type driven struct {
	*Allocator
	n uint64
}

func newDriven(cfg Config) *driven { return &driven{Allocator: New(cfg)} }

// access observes one access and polls with the count that includes it.
func (d *driven) access(part int, addr uint64) {
	d.Observe(part, addr)
	d.n++
	d.PollTargets(d.n)
}

// feed drives n accesses through the allocator, alternating partitions;
// partition p draws uniformly from working-set size ws[p] in its own
// address space.
func feed(d *driven, rng *xrand.Rand, ws []int, n int) {
	for i := 0; i < n; i++ {
		p := i % len(ws)
		addr := uint64(p)<<40 | rng.Uint64()%uint64(ws[p])
		d.access(p, addr)
	}
}

func testConfig(obj Objective) Config {
	return Config{
		Parts:         2,
		Lines:         4096,
		EpochAccesses: 16384,
		SampleShift:   1,
		Objective:     obj,
		Seed:          42,
	}
}

// A working set that fits beside a much larger one: the utility objective
// must shift capacity toward the partition that can use it.
func TestAllocatorFavorsLargeWorkingSet(t *testing.T) {
	a := newDriven(testConfig(MaxHits{}))
	rng := xrand.New(7)
	feed(a, rng, []int{3000, 200}, 6*16384)

	tg := a.Targets()
	if tg[0] <= tg[1] {
		t.Fatalf("partition 0 (3000-line set) should out-rank partition 1 (200): %v", tg)
	}
	if tg[0]+tg[1] > 4096 {
		t.Fatalf("targets exceed capacity: %v", tg)
	}
	if tg[1] < 64 {
		t.Fatalf("live partition fell below the one-chunk floor: %v", tg)
	}
}

// Static workload ⇒ targets stabilize: under the phase-adaptive objective
// every epoch after the first must hold the allocation unchanged, and no
// epoch may count as drift. Epochs are 4× testConfig's so that sampling
// noise stays under the production driftThreshold.
func TestAllocatorConvergesOnStaticWorkload(t *testing.T) {
	cfg := testConfig(&PhaseAdaptive{})
	cfg.EpochAccesses = 4 * 16384
	a := newDriven(cfg)
	rng := xrand.New(11)
	feed(a, rng, []int{2000, 400}, 10*cfg.EpochAccesses)

	log, _ := a.Log()
	if len(log) < 8 {
		t.Fatalf("expected ≥ 8 epochs, got %d", len(log))
	}
	for _, d := range log[2:] {
		if d.Changed {
			t.Fatalf("epoch %d reallocated on a static workload: %+v", d.Epoch, d)
		}
		if d.Drift {
			t.Fatalf("epoch %d flagged drift on a static workload (divergence %.3f)", d.Epoch, d.Divergence)
		}
	}
}

// Phase flip ⇒ targets move within a bounded number of epochs, and the
// decision log records the drift.
func TestAllocatorReallocatesOnPhaseFlip(t *testing.T) {
	a := newDriven(testConfig(&PhaseAdaptive{}))
	rng := xrand.New(13)

	feed(a, rng, []int{3000, 200}, 6*16384)
	before := a.Targets()
	if before[0] <= before[1] {
		t.Fatalf("pre-flip targets should favor partition 0: %v", before)
	}
	epochsBefore := a.Epoch()

	// Flip the working sets: partition 1 becomes the big one.
	feed(a, rng, []int{200, 3000}, 6*16384)

	log, _ := a.Log()
	flipEpoch := -1
	for _, d := range log {
		if d.Epoch > epochsBefore && d.Changed && d.Targets[1] > d.Targets[0] {
			flipEpoch = d.Epoch
			break
		}
	}
	if flipEpoch < 0 {
		t.Fatalf("no reallocation toward partition 1 after the flip; log: %+v", log)
	}
	// Decay halves old counters each epoch, so the flip must land within a
	// few epochs of the phase change.
	if flipEpoch > epochsBefore+4 {
		t.Fatalf("reallocation took %d epochs after the flip", flipEpoch-epochsBefore)
	}
	after := a.Targets()
	if after[1] <= after[0] {
		t.Fatalf("post-flip targets should favor partition 1: %v", after)
	}
}

// Equal seeds and access sequences produce bit-identical decision logs.
func TestAllocatorDeterministic(t *testing.T) {
	run := func() []Decision {
		a := newDriven(testConfig(MaxHits{}))
		rng := xrand.New(99)
		feed(a, rng, []int{1500, 700}, 5*16384)
		log, _ := a.Log()
		return log
	}
	la, lb := run(), run()
	if len(la) != len(lb) {
		t.Fatalf("log lengths differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		a, b := la[i], lb[i]
		if a.Epoch != b.Epoch || a.Access != b.Access || a.Changed != b.Changed ||
			a.Divergence != b.Divergence || a.MissRatio != b.MissRatio ||
			!equalInts(a.Targets, b.Targets) {
			t.Fatalf("decision %d diverged:\n%+v\n%+v", i, a, b)
		}
	}
}

// Observe alone never closes an epoch; a poll closes one only once the
// reported count reaches the epoch's end, and reports the change it made
// once, as a copy.
func TestAllocatorPollTargets(t *testing.T) {
	cfg := testConfig(MaxHits{})
	a := New(cfg)
	rng := xrand.New(3)
	ws := []int{3000, 100}
	end := uint64(cfg.EpochAccesses)
	for i := 0; i < 10*cfg.EpochAccesses; i++ {
		p := i % len(ws)
		a.Observe(p, uint64(p)<<40|rng.Uint64()%uint64(ws[p]))
	}
	if a.Epoch() != 0 {
		t.Fatalf("%d Observes closed %d epochs; only a poll may", 10*cfg.EpochAccesses, a.Epoch())
	}
	if tg, ok := a.PollTargets(end - 1); ok || a.Epoch() != 0 {
		t.Fatalf("a poll one access short of the epoch's end closed %d epochs, reported %v", a.Epoch(), tg)
	}
	tg, ok := a.PollTargets(end)
	if !ok || a.Epoch() != 1 {
		t.Fatalf("the poll at the epoch's end closed %d epochs, reported %v, want one change", a.Epoch(), ok)
	}
	if log, _ := a.Log(); log[0].Access != end {
		t.Fatalf("epoch closed at access %d, want the polled %d", log[0].Access, end)
	}
	tg[0] = -1 // mutate the copy
	if again, ok := a.PollTargets(end); ok || a.Epoch() != 1 {
		t.Fatalf("a second poll at the same count closed %d epochs, reported %v", a.Epoch(), again)
	}
	if a.Targets()[0] == -1 {
		t.Fatalf("PollTargets leaked internal state")
	}
}

// Before any epoch closes the allocator reports its initial targets: the
// configured vector, or an even split.
func TestAllocatorInitialTargets(t *testing.T) {
	a := New(testConfig(nil))
	if tg := a.Targets(); tg[0] != 2048 || tg[1] != 2048 {
		t.Fatalf("default initial targets should be an even split, got %v", tg)
	}
	cfg := testConfig(nil)
	cfg.Initial = []int{3000, 1096}
	a = New(cfg)
	if tg := a.Targets(); tg[0] != 3000 || tg[1] != 1096 {
		t.Fatalf("configured initial targets not honored: %v", tg)
	}
}

// Dead partitions keep zero targets; a partition with no sampled traffic is
// dead.
func TestAllocatorDeadPartitionGetsZero(t *testing.T) {
	a := newDriven(testConfig(MaxHits{}))
	rng := xrand.New(5)
	for i := 0; i < 3*16384; i++ {
		a.access(0, rng.Uint64()%1000) // only partition 0 ever accesses
	}
	tg := a.Targets()
	if tg[1] != 0 {
		t.Fatalf("silent partition should be allocated zero, got %v", tg)
	}
	if tg[0] < 4096-64 {
		t.Fatalf("live partition should absorb the capacity, got %v", tg)
	}
}

// Flush closes an epoch regardless of the access count.
func TestAllocatorFlush(t *testing.T) {
	a := newDriven(testConfig(MaxHits{}))
	rng := xrand.New(17)
	feed(a, rng, []int{500, 500}, 100)
	if a.Epoch() != 0 {
		t.Fatalf("no boundary reached yet")
	}
	a.Flush()
	if a.Epoch() != 1 {
		t.Fatalf("Flush must close the epoch")
	}
	log, _ := a.Log()
	if len(log) != 1 {
		t.Fatalf("expected one decision, got %d", len(log))
	}
}

// The decision log drops oldest entries beyond logCap and reports the count.
func TestAllocatorLogCap(t *testing.T) {
	a := newDriven(testConfig(MaxHits{}))
	rng := xrand.New(23)
	const epochs = logCap + 44
	for i := 0; i < epochs; i++ {
		feed(a, rng, []int{100, 100}, 16)
		a.Flush()
	}
	log, dropped := a.Log()
	if len(log) != logCap {
		t.Fatalf("log should be capped at %d, got %d", logCap, len(log))
	}
	if dropped != epochs-logCap {
		t.Fatalf("dropped %d decisions, want %d", dropped, epochs-logCap)
	}
	if log[0].Epoch != epochs-logCap+1 || log[len(log)-1].Epoch != epochs {
		t.Fatalf("log must retain the newest decisions: epochs %d..%d", log[0].Epoch, log[len(log)-1].Epoch)
	}
}

func TestAllocatorConfigPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("parts", func() { New(Config{Parts: 0, Lines: 64}) })
	mustPanic("lines", func() { New(Config{Parts: 1, Lines: 0}) })
	mustPanic("floors", func() {
		New(Config{Parts: 8, Lines: 64, ChunkLines: 16})
	})
	mustPanic("initial", func() {
		New(Config{Parts: 2, Lines: 64, Initial: []int{64}})
	})
}
