package shardcache

import (
	"slices"
	"testing"
	"time"

	"fscache/internal/core"
	"fscache/internal/xrand"
)

// buildBatchWorkload returns n seeded accesses spread across parts with a
// skewed, Mix64-finalized address stream (see BuildSchedule on H3 null
// spaces for why raw low-entropy keys are unsafe).
func buildBatchWorkload(seed uint64, n, parts int) []Access {
	rng := xrand.New(seed)
	zipf := xrand.NewZipf(rng, 0.9, 1<<14)
	out := make([]Access, n)
	for i := range out {
		part := rng.Intn(parts)
		out[i] = Access{
			Addr: xrand.Mix64(uint64(part+1)<<24 + uint64(zipf.Next())),
			Part: part,
		}
	}
	return out
}

// TestBatchMatchesSequential pins the batched submission contract: flushing
// a batch is equivalent to issuing its requests as plain Access calls in
// batch order. Each stripe is an independent core.Cache, so the equivalence
// is byte-exact, not statistical: per-request results and the final
// per-stripe snapshots must be identical, across batch sizes, with target
// installs interleaved between flushes.
func TestBatchMatchesSequential(t *testing.T) {
	for _, stripes := range []int{4, 16} {
		for _, batchSize := range []int{1, 3, 32, 257} {
			cfg := testConfig(stripes)
			seq := New(cfg)
			seq.SetTargets(testTargets())
			bat := New(cfg)
			bat.SetTargets(testTargets())
			b := bat.NewBatch()

			n := 8192
			if testing.Short() {
				n = 2048
			}
			work := buildBatchWorkload(testSeed^uint64(stripes)<<16^uint64(batchSize), n, cfg.Parts)
			results := make([]core.AccessResult, batchSize)
			flushes := 0
			for lo := 0; lo < len(work); lo += batchSize {
				hi := min(lo+batchSize, len(work))
				chunk := work[lo:hi]
				b.Access(chunk, results[:len(chunk)])
				for i, a := range chunk {
					want := seq.Access(a.Addr, a.Part)
					if results[i] != want {
						t.Fatalf("stripes=%d batch=%d: request %d result %+v, sequential %+v",
							stripes, batchSize, lo+i, results[i], want)
					}
				}
				flushes++
				if flushes%16 == 0 {
					tg := testTargets()
					if flushes%32 == 0 {
						slices.Reverse(tg)
					}
					seq.SetTargets(tg)
					bat.SetTargets(tg)
				}
			}

			ss, bs := seq.StripeSnapshots(), bat.StripeSnapshots()
			for i := range ss {
				if ss[i].String() != bs[i].String() {
					t.Fatalf("stripes=%d batch=%d: stripe %d diverged\n--- sequential:\n%s--- batched:\n%s",
						stripes, batchSize, i, ss[i].String(), bs[i].String())
				}
			}
			if err := bat.CheckInvariants(); err != nil {
				t.Fatalf("stripes=%d batch=%d: invariants: %v", stripes, batchSize, err)
			}
		}
	}
}

// TestBatchShortResults pins the guard: a results buffer shorter than the
// request slice must panic rather than write out of bounds.
func TestBatchShortResults(t *testing.T) {
	e := New(testConfig(4))
	b := e.NewBatch()
	defer func() {
		if recover() == nil {
			t.Fatal("Batch.Access with short results did not panic")
		}
	}()
	b.Access(make([]Access, 4), make([]core.AccessResult, 3))
}

// TestBatchZeroAlloc enforces the steady-state contract the //fs:allocfree
// annotation promises: once a batch has grown to its working size, flushes
// allocate nothing.
func TestBatchZeroAlloc(t *testing.T) {
	cfg := testConfig(16)
	e := New(cfg)
	e.SetTargets(testTargets())
	b := e.NewBatch()
	const size = 64
	work := buildBatchWorkload(testSeed^0xba7c4, size, cfg.Parts)
	results := make([]core.AccessResult, size)
	// Warm up: grow the batch scratch and fill the stripes to steady state,
	// so every ranker/freelist structure has reached its working size and
	// measured flushes only evict-and-reuse.
	rng := xrand.New(1)
	for i := 0; i < 400; i++ {
		for j := range work {
			work[j].Addr = xrand.Mix64(uint64(work[j].Part+1)<<24 + rng.Uint64()%(1<<14))
		}
		b.Access(work, results)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range work {
			work[i].Addr = xrand.Mix64(uint64(work[i].Part+1)<<24 + rng.Uint64()%(1<<14))
		}
		b.Access(work, results)
	})
	if allocs != 0 {
		t.Fatalf("warm Batch.Access allocates %.1f times per flush, want 0", allocs)
	}
}

// TestRebalancer pins the background poller: polls happen on the ticker
// cadence without any accessor driving them, each installs what the source
// offers while accessors run, Stop quiesces with no poll in flight, and
// double-Stop is safe.
func TestRebalancer(t *testing.T) {
	cfg := testConfig(16)
	e := New(cfg)
	e.SetTargets(testTargets())
	r := e.StartRebalancerSource(time.Millisecond, &flipSource{a: testTargets(), b: []int{768, 1280, 2048}})
	work := buildBatchWorkload(testSeed^0x4eba, 4096, cfg.Parts)
	//fslint:ignore determinism rebalancer test: the poller is wall-clock driven by design, so waiting for its first poll needs a wall-clock timeout
	deadline := time.Now().Add(2 * time.Second)
	//fslint:ignore determinism rebalancer test: bounded wall-clock wait for the ticker-driven poll
	for r.Rebalances() == 0 && time.Now().Before(deadline) {
		for _, a := range work {
			e.Access(a.Addr, a.Part)
		}
	}
	r.Stop()
	passes := r.Rebalances()
	if passes == 0 {
		t.Fatal("no background poll completed within 2s at 1ms cadence")
	}
	if got := r.Installs(); got != passes {
		t.Fatalf("%d installs over %d polls of a source that always offers targets", got, passes)
	}
	// Quiesced: no further polls can land after Stop returned.
	time.Sleep(5 * time.Millisecond)
	if got := r.Rebalances(); got != passes {
		t.Fatalf("poll after Stop: %d then %d", passes, got)
	}
	r.Stop() // idempotent
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after background rebalancing: %v", err)
	}
}

// TestStartRebalancerRejectsBadInterval pins the constructor's guards: a
// non-positive interval, and a nil source, which would have nothing to poll.
func TestStartRebalancerRejectsBadInterval(t *testing.T) {
	e := New(testConfig(4))
	src := &stubSource{targets: testTargets()}
	for _, tc := range []struct {
		name     string
		interval time.Duration
		src      TargetSource
	}{
		{"zero interval", 0, src},
		{"nil source", time.Millisecond, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: StartRebalancerSource did not panic", tc.name)
				}
			}()
			e.StartRebalancerSource(tc.interval, tc.src).Stop()
		}()
	}
}
