package shardcache

// Deterministic concurrent driving.
//
// The engine itself is merely thread-safe: under a free-running workload
// the per-shard interleaving of accesses depends on goroutine scheduling,
// so two runs are statistically equivalent but not byte-identical. The
// tests' driver in this file restores seed-driven reproducibility as a
// protocol property with three rules:
//
//  1. Shard ownership: worker w exclusively accesses the shards with
//     index s where s % workers == w. Two workers never touch the same
//     shard, so each shard's access sequence is one worker's program
//     order — a pure function of the schedule, independent of how the Go
//     scheduler interleaves the workers.
//  2. Seeded schedules: each worker's accesses are pre-generated from
//     xrand streams derived from (seed, worker), with rejection sampling
//     keeping only addresses that route to the worker's own shards.
//  3. Round barriers: the schedule is split into rounds; all workers join
//     a barrier between rounds and the global target distributor
//     (Engine.Rebalance) runs only at the barrier, where every shard's
//     state is deterministic.
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

// Rounds returns the number of barrier-separated rounds.
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
// the given worker count: rounds barrier-separated rounds of perRound
// accesses per worker. Worker w draws from its own seeded stream — a
// Zipf-popularity working set per partition, partitions with increasing
// spans so their local miss ratios differ — and keeps only addresses
// routing to shards it owns (s % workers == w). workers must be in
// [1, e.Shards()] so every worker owns at least one shard.
func BuildSchedule(e *Engine, seed uint64, workers, rounds, perRound int) *Schedule {
	if workers < 1 || workers > e.Shards() {
		panic("shardcache: workers must be in [1, shards] for deterministic driving")
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
				if e.ShardOf(addr)%workers != w {
					continue // routes to another worker's shard
				}
				ops = append(ops, Access{Addr: addr, Part: part})
			}
			s.ops[r][w] = ops
		}
	}
	return s
}

// RunDeterministic drives e with sched: each round launches one goroutine
// per worker, waits for all of them at the barrier, then runs the global
// target distributor. Workers only touch shards they own, so the run's
// results are byte-identical across repetitions (see the package protocol
// above).
func RunDeterministic(e *Engine, sched *Schedule) {
	for r := 0; r < sched.Rounds(); r++ {
		barrier := make(chan struct{}, sched.workers)
		for w := 0; w < sched.workers; w++ {
			ops := sched.Ops(r, w)
			//fslint:ignore determinism shard-ownership protocol: workers access disjoint shards, so per-shard order is schedule order regardless of goroutine interleaving
			go func(ops []Access) {
				for _, a := range ops {
					e.Access(a.Addr, a.Part)
				}
				barrier <- struct{}{}
			}(ops)
		}
		for w := 0; w < sched.workers; w++ {
			<-barrier
		}
		e.Rebalance()
	}
}

// ShardOf returns the shard an address routes to: the top bit-slice of its
// global H3 set index. The deterministic driving protocol partitions
// ownership at shard granularity, so all of a shard's stripes belong to the
// shard's owner.
func (e *Engine) ShardOf(addr uint64) int {
	return e.stripeOf(addr) / e.perShard
}

// ShardSnapshots returns each shard's measurement state in shard index
// order, each shard's stripes merged into one core.Snapshot. A shard with no
// measured stripe (see Snapshot) has empty EvictFutility histograms.
func (e *Engine) ShardSnapshots() []core.Snapshot {
	out := make([]core.Snapshot, e.Shards())
	for g, st := range e.stripes {
		st.mu.Lock()
		snap := st.cache.StatsSnapshot()
		st.mu.Unlock()
		s := g / e.perShard
		if g%e.perShard == 0 {
			out[s] = snap
		} else {
			out[s].Merge(snap)
		}
	}
	return out
}

// TestDeterministicByteIdentical is the determinism acceptance test: two
// engines built from the same configuration and driven by the same seeded
// schedule through genuinely concurrent workers must end in byte-identical
// measurement state — merged and per shard — as rendered by the canonical
// core.Snapshot.String layout.
func TestDeterministicByteIdentical(t *testing.T) {
	testDeterministicByteIdentical(t, testConfig(4))
}

// TestStripedDeterministicByteIdentical repeats the determinism acceptance
// test with lock striping on: the shard-ownership protocol still hands each
// worker whole shards, so owning a shard means owning all of its stripes
// and the byte-identical guarantee must survive the finer locking.
func TestStripedDeterministicByteIdentical(t *testing.T) {
	cfg := testConfig(4)
	cfg.Stripes = 4
	testDeterministicByteIdentical(t, cfg)
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
		shards := e.ShardSnapshots()
		per := make([]string, len(shards))
		for i := range shards {
			per[i] = shards[i].String()
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
			t.Errorf("shard %d snapshots differ across same-seed runs:\n--- run 1:\n%s--- run 2:\n%s",
				i, s1[i], s2[i])
		}
	}
}

// TestScheduleOwnership pins the shard-ownership protocol the determinism
// argument rests on: every scheduled access for worker w must route to a
// shard with index ≡ w (mod workers).
func TestScheduleOwnership(t *testing.T) {
	e := New(testConfig(4))
	sched := BuildSchedule(e, 99, 2, 3, 512)
	for r := 0; r < sched.Rounds(); r++ {
		for w := 0; w < sched.Workers(); w++ {
			for _, a := range sched.Ops(r, w) {
				if s := e.ShardOf(a.Addr); s%sched.Workers() != w {
					t.Fatalf("round %d worker %d scheduled addr %#x on shard %d (owner %d)",
						r, w, a.Addr, s, s%sched.Workers())
				}
			}
		}
	}
}

// TestConcurrentStress hammers one engine from many free-running writers
// while concurrent readers take snapshots and a rebalancer redistributes
// targets — the -race configuration from CI. Free-running workers share
// shards, so this run is (intentionally) not deterministic; it asserts
// thread-safety: no races, conserved counters, clean invariants.
func TestConcurrentStress(t *testing.T) {
	cfg := Config{
		Lines:   1024,
		Ways:    8,
		Shards:  4,
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
		//fslint:ignore determinism race stress test: free-running writers deliberately share shards; only thread-safety is asserted
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
	//fslint:ignore determinism race stress test: rebalancer races against writers by design
	go func() {
		defer aux.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			e.Rebalance()
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
