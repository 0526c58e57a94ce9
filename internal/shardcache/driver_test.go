package shardcache

// Deterministic concurrent driving.
//
// The engine itself is merely thread-safe: under a free-running workload
// the per-stripe interleaving of accesses depends on goroutine scheduling,
// so two runs are statistically equivalent but not byte-identical. The
// tests' driver in this file restores seed-driven reproducibility as a
// protocol property with two rules:
//
//  1. Stripe ownership: worker w exclusively accesses the stripes with
//     index g where g % workers == w. Two workers never touch the same
//     stripe, so each stripe's access sequence is one worker's program
//     order — a pure function of the schedule, independent of how the Go
//     scheduler interleaves the workers.
//  2. Seeded schedules: each worker's accesses are pre-generated from
//     xrand streams derived from (seed, worker), with rejection sampling
//     keeping only addresses that route to the worker's own stripes.
//
// Targets are installed before a run, so no cross-stripe write lands in
// the middle of one.
//
// Under these rules two runs with the same seed, worker count and engine
// configuration produce byte-identical merged statistics (the determinism
// test compares core.Snapshot.String renderings), even though the workers
// genuinely run in parallel.

import (
	"sync"
	"sync/atomic"
	"testing"

	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/xrand"
)

// Schedule fixes per-worker, per-round access sequences for deterministic
// concurrent driving.
type Schedule struct {
	workers int
	ops     [][][]Access // [round][worker][]Access
}

// Workers returns the worker count the schedule was built for.
func (s *Schedule) Workers() int { return s.workers }

// Rounds returns the number of rounds, the blocks Sequential merges in order.
func (s *Schedule) Rounds() int { return len(s.ops) }

// Ops returns the accesses worker w performs in round r (read-only).
func (s *Schedule) Ops(r, w int) []Access { return s.ops[r][w] }

// Sequential returns every access in the canonical ordered merge: rounds in
// order and, within a round, a round-robin interleave of the workers (op i
// of worker 0, op i of worker 1, …, then op i+1). This is the order the
// monolithic comparison cache replays. The interleave matters: concatenating
// whole worker blocks instead would hand the monolithic cache one worker's
// (smaller) working set at a time — artificial phase locality the concurrent
// engine never enjoys — and systematically understate its miss ratio.
func (s *Schedule) Sequential() []Access {
	var out []Access
	for _, round := range s.ops {
		longest := 0
		for _, ops := range round {
			if len(ops) > longest {
				longest = len(ops)
			}
		}
		for i := 0; i < longest; i++ {
			for _, ops := range round {
				if i < len(ops) {
					out = append(out, ops[i])
				}
			}
		}
	}
	return out
}

// scheduleSalt separates the schedule generator's streams from the engine's
// hash/ranker seeding (both derive from the same experiment seed).
const scheduleSalt = 0x5c4ed01e

// BuildSchedule pre-generates a deterministic schedule for driving e with
// the given worker count: rounds rounds of perRound accesses per worker.
// Worker w draws from its own seeded stream — a
// Zipf-popularity working set per partition, partitions with increasing
// spans so their local miss ratios differ — and keeps only addresses
// routing to stripes it owns (g % workers == w). workers must be in
// [1, e.Stripes()] so every worker owns at least one stripe.
func BuildSchedule(e *Engine, seed uint64, workers, rounds, perRound int) *Schedule {
	if workers < 1 || workers > e.Stripes() {
		panic("shardcache: workers must be in [1, stripes] for deterministic driving")
	}
	if rounds < 1 || perRound < 1 {
		panic("shardcache: rounds and perRound must be positive")
	}
	parts := e.Parts()
	lines := e.Lines()
	s := &Schedule{workers: workers, ops: make([][][]Access, rounds)}
	for r := range s.ops {
		s.ops[r] = make([][]Access, workers)
	}
	for w := 0; w < workers; w++ {
		rng := xrand.New(xrand.Mix64(seed^scheduleSalt) ^ xrand.Mix64(uint64(w+1)))
		zipf := xrand.NewZipf(rng, 0.8, 1<<16)
		for r := 0; r < rounds; r++ {
			ops := make([]Access, 0, perRound)
			for len(ops) < perRound {
				part := rng.Intn(parts)
				// Every partition's span exceeds the whole cache, so demand
				// oversubscribes any target and the feedback controllers (not
				// the working-set sizes) determine the allocation; later
				// partitions get longer reuse distances, so per-partition
				// miss ratios differ and the comparison has shape. The
				// structured (part, rank) key is finalized through Mix64 — a
				// bijection, so identity and Zipf popularity survive — because
				// raw keys varying in only ~16 bits can land in an H3 null
				// space (an index bit whose masks miss every varying key bit),
				// silently halving the reachable sets.
				span := (part + 1) * lines
				addr := xrand.Mix64(uint64(part+1)<<24 + uint64(zipf.Next()%span))
				if e.stripeOf(addr)%workers != w {
					continue // routes to another worker's stripe
				}
				ops = append(ops, Access{Addr: addr, Part: part})
			}
			s.ops[r][w] = ops
		}
	}
	return s
}

// RunDeterministic drives e with sched: one goroutine per worker performs
// its accesses round by round, and RunDeterministic returns when all have
// finished. Workers only touch stripes they own, so the run's results are
// byte-identical across repetitions (see the package protocol above).
func RunDeterministic(e *Engine, sched *Schedule) {
	var wg sync.WaitGroup
	for w := 0; w < sched.workers; w++ {
		wg.Add(1)
		//fslint:ignore determinism stripe-ownership protocol: workers access disjoint stripes, so per-stripe order is schedule order regardless of goroutine interleaving
		go func(w int) {
			defer wg.Done()
			for r := 0; r < sched.Rounds(); r++ {
				for _, a := range sched.Ops(r, w) {
					e.Access(a.Addr, a.Part)
				}
			}
		}(w)
	}
	wg.Wait()
}

// StripeSnapshots returns each stripe's measurement state in stripe index
// order. An unmeasured stripe (see Snapshot) has nil, so empty,
// EvictFutility histograms.
func (e *Engine) StripeSnapshots() []core.Snapshot {
	out := make([]core.Snapshot, len(e.stripes))
	for g, st := range e.stripes {
		st.mu.Lock()
		out[g] = st.cache.StatsSnapshot()
		st.mu.Unlock()
	}
	return out
}

// TestDeterministicByteIdentical is the determinism acceptance test: two
// engines built from the same configuration and driven by the same seeded
// schedule through genuinely concurrent workers must end in byte-identical
// measurement state — merged and per stripe — as rendered by the canonical
// core.Snapshot.String layout.
func TestDeterministicByteIdentical(t *testing.T) {
	testDeterministicByteIdentical(t, testConfig(4))
}

// TestStripedDeterministicByteIdentical repeats the determinism acceptance
// test with more stripes than workers: each worker then owns four stripes,
// and the byte-identical guarantee must survive the finer locking.
func TestStripedDeterministicByteIdentical(t *testing.T) {
	testDeterministicByteIdentical(t, testConfig(16))
}

func testDeterministicByteIdentical(t *testing.T, cfg Config) {
	t.Helper()
	run := func() (string, []string) {
		e := New(cfg)
		e.SetTargets(testTargets())
		rounds, perRound := 4, 2048
		if testing.Short() {
			rounds, perRound = 2, 1024
		}
		sched := BuildSchedule(e, testSeed^0xd0, 4, rounds, perRound)
		RunDeterministic(e, sched)
		stripes := e.StripeSnapshots()
		per := make([]string, len(stripes))
		for i := range stripes {
			per[i] = stripes[i].String()
		}
		return e.Snapshot().String(), per
	}
	m1, s1 := run()
	m2, s2 := run()
	if m1 != m2 {
		t.Errorf("merged snapshots differ across same-seed runs:\n--- run 1:\n%s--- run 2:\n%s", m1, m2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("stripe %d snapshots differ across same-seed runs:\n--- run 1:\n%s--- run 2:\n%s",
				i, s1[i], s2[i])
		}
	}
}

// TestScheduleOwnership pins the stripe-ownership protocol the determinism
// argument rests on: every scheduled access for worker w must route to a
// stripe with index ≡ w (mod workers).
func TestScheduleOwnership(t *testing.T) {
	e := New(testConfig(4))
	sched := BuildSchedule(e, 99, 2, 3, 512)
	for r := 0; r < sched.Rounds(); r++ {
		for w := 0; w < sched.Workers(); w++ {
			for _, a := range sched.Ops(r, w) {
				if g := e.stripeOf(a.Addr); g%sched.Workers() != w {
					t.Fatalf("round %d worker %d scheduled addr %#x on stripe %d (owner %d)",
						r, w, a.Addr, g, g%sched.Workers())
				}
			}
		}
	}
}

// TestConcurrentStress hammers one engine from many free-running writers
// while concurrent readers take snapshots and a retargeter installs two
// target vectors in turn — the -race configuration from CI. Free-running workers share
// stripes, so this run is (intentionally) not deterministic; it asserts
// thread-safety: no races, conserved counters, clean invariants.
func TestConcurrentStress(t *testing.T) {
	cfg := Config{
		Lines:   1024,
		Ways:    8,
		Stripes: 4,
		Parts:   2,
		Ranking: futility.CoarseLRU,
		Seed:    testSeed ^ 0x57,
	}
	e := New(cfg)
	e.SetTargets([]int{640, 384})

	writers, perWriter := 8, 20000
	if testing.Short() {
		writers, perWriter = 4, 5000
	}
	var total atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		//fslint:ignore determinism race stress test: free-running writers deliberately share stripes; only thread-safety is asserted
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w+1) * 0x9e37)
			zipf := xrand.NewZipf(rng, 0.9, 1<<12)
			for i := 0; i < perWriter; i++ {
				part := rng.Intn(cfg.Parts)
				e.Access(uint64(part+1)<<20+uint64(zipf.Next()), part)
			}
			total.Add(uint64(perWriter))
		}(w)
	}
	var aux sync.WaitGroup
	for r := 0; r < 2; r++ {
		aux.Add(1)
		//fslint:ignore determinism race stress test: concurrent snapshot readers race against writers by design
		go func() {
			defer aux.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := e.Snapshot()
				// Merged counters must always be internally consistent even
				// mid-flight: a partition's evictions can never exceed its
				// insertions.
				for p := range snap.Parts {
					if snap.Parts[p].Evictions > snap.Parts[p].Insertions {
						t.Errorf("snapshot part %d: %d evictions > %d insertions",
							p, snap.Parts[p].Evictions, snap.Parts[p].Insertions)
						return
					}
				}
			}
		}()
	}
	aux.Add(1)
	//fslint:ignore determinism race stress test: retargeting races against writers by design
	go func() {
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			e.SetTargets([][]int{{640, 384}, {384, 640}}[i%2])
		}
	}()
	wg.Wait()
	close(done)
	aux.Wait()

	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stress: %v", err)
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
}
