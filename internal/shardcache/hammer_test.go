package shardcache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/xrand"
)

// TestConcurrentHammer is the -race acceptance test for the striped engine:
// seeded workers split between the plain Access path and batched submission
// hammer every stripe while a background Rebalancer installing a source's
// vector on every poll and tenant churn (SetTargets swapping the target
// vector from a second goroutine) race against them. After quiesce the engine must pass the occupancy
// conservation rescan (core.CheckInvariants per stripe) and the global
// accounting must balance: no access lost, hits+misses == accesses,
// resident lines within capacity.
func TestConcurrentHammer(t *testing.T) {
	cfg := Config{
		Lines:   2048,
		Ways:    16,
		Stripes: 16,
		Parts:   3,
		Ranking: futility.CoarseLRU,
		Seed:    testSeed ^ 0xa44e4,
	}
	e := New(cfg)
	e.SetTargets([]int{1024, 640, 384})

	workers, perWorker := 8, 16000
	if testing.Short() {
		workers, perWorker = 4, 4000
	}
	const batchSize = 24

	var total atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//fslint:ignore determinism hammer test: free-running workers deliberately share stripes; only race-freedom and conservation are asserted
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w+1) * 0x9e3779b9)
			zipf := xrand.NewZipf(rng, 0.9, 1<<13)
			next := func() (uint64, int) {
				part := rng.Intn(cfg.Parts)
				return xrand.Mix64(uint64(part+1)<<24 + uint64(zipf.Next())), part
			}
			if w%2 == 0 {
				// Batched half: one reusable Batch per goroutine.
				b := e.NewBatch()
				reqs := make([]Access, batchSize)
				results := make([]core.AccessResult, batchSize)
				for i := 0; i < perWorker; i += batchSize {
					for j := range reqs {
						reqs[j].Addr, reqs[j].Part = next()
					}
					b.Access(reqs, results)
					total.Add(batchSize)
				}
				return
			}
			for i := 0; i < perWorker; i++ {
				addr, part := next()
				e.Access(addr, part)
				total.Add(1)
			}
		}(w)
	}

	// Background installs at an aggressive cadence.
	rb := e.StartRebalancerSource(200*time.Microsecond, &flipSource{a: []int{1024, 512, 512}, b: []int{512, 512, 1024}})
	// Tenant churn: the target vector flips between two apportionments
	// while accessors run, taking mu and then each stripe lock in turn
	// (the //fs:lockorder contract this test smokes under -race).
	var churn sync.WaitGroup
	churn.Add(1)
	//fslint:ignore determinism hammer test: target churn races against accessors by design
	go func() {
		defer churn.Done()
		a := []int{1024, 640, 384}
		b := []int{384, 640, 1024}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if i%2 == 0 {
				e.SetTargets(b)
			} else {
				e.SetTargets(a)
			}
		}
	}()

	wg.Wait()
	// Under -short the workers can finish before the first tick is served,
	// and Stop's close then races that tick in the loop's select. Keep the
	// churn going until the rebalancer has polled once, so a poll still
	// races SetTargets; the deadline bounds a rebalancer that never polls.
	//fslint:ignore determinism the poller is wall-clock driven, so waiting for its first poll needs a wall-clock timeout
	deadline := time.Now().Add(10 * time.Second)
	//fslint:ignore determinism bounded wall-clock wait for the ticker-driven poll
	for rb.Rebalances() == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(done)
	churn.Wait()
	rb.Stop()

	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after hammer: %v", err)
	}
	snap := e.Snapshot()
	if snap.Accesses != total.Load() {
		t.Fatalf("engine recorded %d accesses, workers performed %d", snap.Accesses, total.Load())
	}
	var hm uint64
	size := 0
	for p := range snap.Parts {
		hm += snap.Parts[p].Hits + snap.Parts[p].Misses
		size += snap.Parts[p].Size
	}
	if hm != total.Load() {
		t.Fatalf("hits+misses %d != accesses %d", hm, total.Load())
	}
	if size > cfg.Lines {
		t.Fatalf("resident lines %d exceed capacity %d", size, cfg.Lines)
	}
	if rb.Rebalances() == 0 {
		t.Error("background rebalancer completed no polls during the hammer")
	}
}

// TestLockedHandlesUnderRace drives the Locked handle paths against plain
// Access from free-running workers under -race, with an auditor checking the
// engine's invariants among them: single Lock/Lookup/Access/Unlock
// sequences, and Batch.Each runs that look up and access every request of a
// stripe under its one lock. Under the handle's lock a Lookup and the Access
// after it agree on the line, whatever the other workers do, and no access
// is lost.
func TestLockedHandlesUnderRace(t *testing.T) {
	cfg := Config{
		Lines: 1024, Ways: 16, Stripes: 8, Parts: 2,
		Ranking: futility.CoarseLRU, Seed: testSeed ^ 0x10c4,
	}
	e := New(cfg)
	e.SetTargets([]int{512, 512})
	perWorker := 12000
	if testing.Short() {
		perWorker = 3000
	}
	const workers, run = 6, 16
	var total atomic.Uint64
	var working sync.WaitGroup
	working.Add(workers)
	access := func(h Locked, a Access) {
		l := h.Lookup(a.Addr)
		if res := h.Access(a.Addr, a.Part); l >= 0 != res.Hit || l >= 0 && l != res.Line {
			t.Errorf("%#x looked up at line %d, then hit %v at line %d", a.Addr, l, res.Hit, res.Line)
		}
	}
	work := func(w int) {
		defer working.Done()
		rng := xrand.New(uint64(w+1) * 0x51ed27)
		zipf := xrand.NewZipf(rng, 0.9, 4*cfg.Lines)
		next := func() Access {
			part := rng.Intn(cfg.Parts)
			return Access{Addr: xrand.Mix64(uint64(part+1)<<24 + uint64(zipf.Next())), Part: part}
		}
		b := e.NewBatch()
		reqs := make([]Access, run)
		for i := 0; i < perWorker; i += run {
			for j := range reqs {
				reqs[j] = next()
			}
			switch w % 3 {
			case 0:
				for _, a := range reqs {
					e.Access(a.Addr, a.Part)
				}
			case 1:
				for _, a := range reqs {
					h := e.Lock(a.Addr)
					access(h, a)
					h.Unlock()
				}
			default:
				b.Each(reqs, func(h Locked, j int32) { access(h, reqs[j]) })
			}
			total.Add(run)
		}
	}
	audited := make(chan struct{})
	audit := func() {
		defer close(audited)
		for n := 0; ; n++ {
			if err := e.CheckInvariants(); err != nil {
				t.Errorf("invariants during the run: %v", err)
			}
			// ≥: a worker rounds perWorker up to whole runs, so under
			// -short the total steps past workers×perWorker.
			if n > 0 && total.Load() >= workers*uint64(perWorker) {
				return
			}
		}
	}
	for w := 0; w <= workers; w++ {
		//fslint:ignore determinism handle race test: free-running workers and the auditor share stripes on purpose; only agreement, race-freedom and accounting are asserted
		go func(w int) {
			if w == workers {
				audit()
			} else {
				work(w)
			}
		}(w)
	}
	working.Wait()
	<-audited
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().Accesses; got != total.Load() {
		t.Fatalf("engine recorded %d accesses, workers performed %d", got, total.Load())
	}
}
