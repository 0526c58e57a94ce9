// Package shardcache is the concurrent layer over the single-threaded
// simulator: it splits one logical Futility-Scaling cache into independently
// locked domains, each owning its own core.Cache, ranker and
// feedback-controller state, so multiple goroutines can drive the cache at
// once while every invariant the sequential simulator enforces keeps holding
// per domain.
//
// The decomposition has two levels. The cache is first split into S *shards*
// — the unit of the deterministic driving protocol the tests use
// (driver_test.go) and of the global target distributor's demand accounting. Each shard is then split
// into K lock *stripes* over contiguous sub-ranges of the shard's sets, each
// stripe a smaller set-associative array with the same associativity behind
// its own mutex. Striping follows the hardware idiom of a banked array indexed
// by one hash: the engine builds one H3 function over the *global* set index
// space, and the top log2(S·K) bits of an address's hash are its stripe (the
// top log2(S) select the shard, the next log2(K) the stripe within it) while
// the bits below are its set within the stripe, whose array indexes with the
// same function. An address therefore sits in exactly the set a monolithic
// H3-indexed array of all the sets, built from the same seed, gives it: the
// stripes are a lock-split of that array. An access contends only with
// accesses to the same 1/(S·K) slice of the sets, not the whole shard.
//
// Partition targets stay a cache-wide contract: SetTargets installs global
// per-partition line targets, and Rebalance — the global target distributor
// — periodically collects every stripe's occupancy and access demand and
// re-apportions each partition's global target across stripes proportional
// to observed per-stripe demand. Under skewed load this converges cache-wide
// partition sizes to the paper's targets even though each stripe's feedback
// controller only ever sees its local slice.
//
// The distributor is built so redistribution never blocks the access path
// for more than one bounded counter swap or target install per stripe:
// demand is counted into per-stripe double-buffered counters, Rebalance
// swaps the buffers under the stripe lock (a slice-header exchange), and all
// aggregation, weighting and apportionment run outside every stripe lock on
// the rebalancer's private buffer. Rebalancer (rebalancer.go) runs this on a
// background ticker so serving layers never call it from a request path.
//
// Concurrency contract: Access, Batch (batch.go), Lock, SetTargets,
// Rebalance, Snapshot and CheckInvariants are all safe for concurrent use. A
// stripe mutex is only ever held for one bounded cache operation, one batched
// run of them, or a Locked holder's bounded work; the engine never holds two
// stripe locks at once. Determinism under concurrency is a protocol property,
// not an engine property — see driver_test.go.
package shardcache

import (
	"fmt"
	"sync"

	"fscache/internal/alloc"
	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/hashing"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// Config assembles a sharded cache.
type Config struct {
	// Lines is the total line count across all shards (power of two).
	Lines int
	// Ways is the associativity of every stripe (power of two).
	Ways int
	// Shards is the shard count (power of two, at most Lines/Ways sets).
	Shards int
	// Stripes is the lock-stripe count per shard (power of two; 0 or 1
	// means one lock per shard, the pre-striping layout). Shards×Stripes
	// must not exceed the set count.
	Stripes int
	// Parts is the number of partitions; targets are cache-wide.
	Parts int
	// Ranking selects the futility ranker each stripe runs. A coarse kind
	// (futility.Reference(k) != k) measures AEF against a separate exact
	// reference ranker on one stripe in measureEvery; exact kinds on all.
	Ranking futility.Kind
	// Seed roots the engine's one hash function and its rankers; equal seeds
	// build byte-identical engines.
	Seed uint64
}

// stripe is one independently locked domain: a single-threaded core.Cache
// over a contiguous sub-range of one shard's sets, plus the active demand
// buffer the global distributor swaps out.
type stripe struct {
	mu sync.Mutex
	//fs:guardedby mu
	cache *core.Cache
	// array is cache's array, kept for Locked's lookups and the placement
	// audit in Engine.CheckInvariants.
	//fs:guardedby mu
	array *cachearray.SetAssoc
	// demand counts insertions routed to this stripe per partition since
	// the distributor's last buffer swap; it is the distributor's load
	// signal. Rebalance exchanges it with a zeroed spare buffer (Engine.spare)
	// under mu, so the counters are read and aggregated outside the lock.
	//fs:guardedby mu
	demand []uint64
}

// Engine is the concurrent sharded cache.
//
// Lock order: rmu (the distributor pass) before tmu (the target vector)
// before any stripe.mu. The access path takes only a single stripe.mu;
// rmu and tmu are never held across more than one bounded operation on any
// stripe, and tmu is never held while a stripe lock is acquired (Rebalance
// copies the target vector under tmu, releases it, and only then walks the
// stripes). fslint's lockcheck analyzer enforces both the guard discipline
// and the declared order.
//
//fs:lockorder Engine.rmu Engine.tmu
//fs:lockorder Engine.rmu stripe.mu
//fs:lockorder Engine.tmu stripe.mu
type Engine struct {
	cfg         Config
	perShard    int // stripes per shard (cfg.Stripes normalized, ≥1)
	router      *hashing.H3
	stripeShift uint      // hashing.ShardShift(sets, len(stripes)): set index → stripe
	stripes     []*stripe // flat, global stripe index g = shard*perShard + stripe
	measured    int       // stripes that record eviction futility

	// tmu guards the cache-wide per-partition goals. It is held only to
	// read or overwrite the vector, never across stripe locks, so target
	// readers are never serialized behind a distribution pass.
	tmu sync.Mutex
	//fs:guardedby tmu
	targets []int

	// rmu serializes distribution passes (SetTargets and Rebalance) and
	// guards their preallocated scratch. A pass holds rmu for its whole
	// duration but only ever takes one stripe lock at a time, for one
	// bounded operation, so a slow stripe delays the distributor — never
	// the access path, and never the other stripes' accessors.
	rmu sync.Mutex
	// spare[g] is the zeroed demand buffer Rebalance swaps into stripe g;
	// after the swap it holds the interval's counters and is read and
	// re-zeroed outside the stripe lock.
	//fs:guardedby rmu
	spare [][]uint64
	// sizeScratch[g] receives stripe g's current per-partition sizes,
	// copied under the stripe lock at swap time.
	//fs:guardedby rmu
	sizeScratch [][]int
	//fs:guardedby rmu
	goalScratch []int // copy of targets taken under tmu
	//fs:guardedby rmu
	weightScratch []float64 // per-stripe weights for one partition
	//fs:guardedby rmu
	shareScratch []int // apportionment output for one partition
	//fs:guardedby rmu
	remScratch []float64 // largest-remainder scratch for one partition
	//fs:guardedby rmu
	perStripe [][]int // [stripe][part] target vectors to install
}

// measureEvery is the AEF sampling period over lock domains. The exact
// reference ranker costs a coarse stripe more than its timestamps do, so only
// stripes with global index g % measureEvery == 0 carry it; the rest run
// core.Config.Unmeasured. Stripes are uniform slices of the H3 set-index
// space, so this is UCP's dynamic set sampling with no per-access test.
const measureEvery = 4

// New builds an engine from cfg. It panics on inconsistent configuration
// (experiment-setup programming errors, matching core.New).
func New(cfg Config) *Engine {
	return newEngine(cfg, func(g int) bool { return g%measureEvery == 0 })
}

// newEngine is New with the choice of measured stripes open, so tests can
// compare the sampled engine against an all-measured one.
func newEngine(cfg Config, isMeasured func(g int) bool) *Engine {
	checkPow2(cfg.Lines, "Lines")
	checkPow2(cfg.Ways, "Ways")
	checkPow2(cfg.Shards, "Shards")
	if cfg.Stripes == 0 {
		cfg.Stripes = 1
	}
	checkPow2(cfg.Stripes, "Stripes")
	if cfg.Parts <= 0 {
		panic("shardcache: Parts must be positive")
	}
	if cfg.Ways > cfg.Lines {
		panic("shardcache: Ways exceed Lines")
	}
	sets := cfg.Lines / cfg.Ways
	nStripes := cfg.Shards * cfg.Stripes
	if nStripes > sets {
		panic("shardcache: more lock stripes than sets")
	}
	// One H3 over the whole engine's sets: its high bits pick the stripe
	// (stripeOf) and its low bits the set within it (NewSetAssocH3).
	router := hashing.NewH3(cfg.Seed, sets)
	stripes := make([]*stripe, nStripes)
	perStripeLines := cfg.Lines / nStripes
	measured := 0
	for g := range stripes {
		arr := cachearray.NewSetAssocH3(perStripeLines, cfg.Ways, router)
		cc := core.Config{
			Array: arr,
			Ranker: futility.New(cfg.Ranking, perStripeLines, cfg.Parts,
				xrand.Mix64(cfg.Seed^0x5a5a0000^uint64(g))),
			Scheme: core.NewFSFeedback(cfg.Parts, core.FSFeedbackConfig{}),
			Parts:  cfg.Parts,
		}
		switch rk := futility.Reference(cfg.Ranking); {
		case rk == cfg.Ranking:
			measured++
		case isMeasured(g):
			cc.Reference = futility.New(rk, perStripeLines, cfg.Parts,
				xrand.Mix64(cfg.Seed^0x0a0a0000^uint64(g)))
			measured++
		default:
			cc.Unmeasured = true
		}
		stripes[g] = &stripe{cache: core.New(cc), array: arr, demand: make([]uint64, cfg.Parts)}
	}
	spare := make([][]uint64, nStripes)
	sizeScratch := make([][]int, nStripes)
	perStripe := make([][]int, nStripes)
	for g := range spare {
		spare[g] = make([]uint64, cfg.Parts)
		sizeScratch[g] = make([]int, cfg.Parts)
		perStripe[g] = make([]int, cfg.Parts)
	}
	return &Engine{
		cfg:           cfg,
		perShard:      cfg.Stripes,
		router:        router,
		stripeShift:   hashing.ShardShift(sets, nStripes),
		stripes:       stripes,
		measured:      measured,
		targets:       make([]int, cfg.Parts),
		spare:         spare,
		sizeScratch:   sizeScratch,
		perStripe:     perStripe,
		goalScratch:   make([]int, cfg.Parts),
		weightScratch: make([]float64, nStripes),
		shareScratch:  make([]int, nStripes),
		remScratch:    make([]float64, nStripes),
	}
}

func checkPow2(n int, what string) {
	if n <= 0 || n&(n-1) != 0 {
		panic("shardcache: " + what + " must be a positive power of two")
	}
}

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.stripes) / e.perShard }

// Stripes returns the lock-stripe count per shard.
func (e *Engine) Stripes() int { return e.perShard }

// Parts returns the partition count.
func (e *Engine) Parts() int { return e.cfg.Parts }

// Lines returns the total line count across all shards.
func (e *Engine) Lines() int { return e.cfg.Lines }

// stripeOf returns the global stripe index for an address: the top
// log2(Shards·Stripes)-bit slice of its H3 set index. Because the slice is
// a prefix, its top log2(Shards) bits are the address's shard.
func (e *Engine) stripeOf(addr uint64) int {
	return int(e.router.Hash(addr)) >> e.stripeShift
}

// Access performs one cache access for partition part on the stripe the
// address routes to, holding only that stripe's lock. The result's Line and
// EvictedLine number lines within that stripe, as every access's do.
//
//fs:allocfree
func (e *Engine) Access(addr uint64, part int) core.AccessResult {
	st := e.stripes[e.stripeOf(addr)]
	countLock()
	st.mu.Lock()
	res := st.access(addr, part)
	st.mu.Unlock()
	return res
}

// Locked is one stripe held under its lock, for a caller whose own state at
// the stripe's lines (the server's byte store) must change in the same
// critical section as the engine's. No method may be called after Unlock,
// and a goroutine holds at most one Locked at a time.
type Locked struct {
	st *stripe
	g  int
}

// Lock takes the lock of the stripe addr routes to.
func (e *Engine) Lock(addr uint64) Locked { return e.LockStripe(e.stripeOf(addr)) }

// LockStripe takes the lock of stripe g, 0 ≤ g < Shards()·Stripes().
func (e *Engine) LockStripe(g int) Locked {
	st := e.stripes[g]
	countLock()
	st.mu.Lock()
	return Locked{st, g}
}

// Unlock releases the stripe.
func (h Locked) Unlock() { h.st.mu.Unlock() }

// Stripe returns the held stripe's global index.
func (h Locked) Stripe() int { return h.g }

// Lookup returns the stripe line holding addr, or -1. It is not an access:
// no recency, statistic or feedback state changes.
//
//fs:callerholds mu
func (h Locked) Lookup(addr uint64) int { return h.st.array.Lookup(addr) }

// Access is Engine.Access on the held stripe.
//
//fs:callerholds mu
//fs:allocfree
func (h Locked) Access(addr uint64, part int) core.AccessResult { return h.st.access(addr, part) }

// access is one cache access on the stripe; it inlines into Engine.Access
// and Batch.Access. Demand is counted in insertions, not raw accesses: a hit
// consumes no line, so a hit-dominated stripe needs no extra allocation,
// while every miss claims a line in this stripe. Weighting the distributor
// by insertion demand reproduces how lines spread across regions of a
// monolithic array (lines sit where they are inserted).
//
//fs:callerholds mu
//fs:allocfree
func (st *stripe) access(addr uint64, part int) core.AccessResult {
	res := st.cache.Access(addr, part, trace.NoNextUse)
	if !res.Hit {
		st.demand[part]++
	}
	return res
}

// SetTargets installs cache-wide per-partition line targets and distributes
// them evenly across stripes (Rebalance later re-apportions by demand).
// len(targets) must equal Parts.
func (e *Engine) SetTargets(targets []int) {
	if len(targets) != e.cfg.Parts {
		panic("shardcache: SetTargets length mismatch")
	}
	e.rmu.Lock()
	defer e.rmu.Unlock()
	e.tmu.Lock()
	copy(e.targets, targets)
	copy(e.goalScratch, e.targets)
	e.tmu.Unlock()
	for g := range e.weightScratch {
		e.weightScratch[g] = 1
	}
	e.apportionAll()
	e.applyTargets()
}

// Targets returns a copy of the cache-wide per-partition targets.
func (e *Engine) Targets() []int {
	e.tmu.Lock()
	defer e.tmu.Unlock()
	return append([]int(nil), e.targets...)
}

// Rebalance is the global target distributor: one snapshot-then-apply pass
// that (1) swaps every stripe's demand counters with a zeroed spare buffer
// and copies its current sizes, holding each stripe lock only for that
// exchange, (2) re-apportions each partition's cache-wide target across
// stripes proportional to demand + occupancy outside every lock, and (3)
// installs the new per-stripe targets, again one bounded operation per
// stripe lock. A stripe that saw more of a partition's traffic gets a larger
// slice of that partition's global allocation, so cache-wide partition sizes
// track the paper's targets even when the address hash routes partitions
// unevenly.
//
// tmu is held only to copy the goal vector — never across a stripe lock —
// and concurrent passes serialize on rmu, so a stalled stripe can delay the
// distributor but never a target reader or another stripe's accessors.
//
// The +1 smoothing term keeps every stripe's weight positive, so no
// stripe's target collapses to zero on a quiet interval (which would force
// its local controller to evict the partition entirely and then refill on
// the next interval).
//
// Demand is a count per pass, so its raw size grows with the pass interval
// and with the engine's speed while occupancy does not. It enters the
// weights as a share instead: a partition's demand is scaled so that it
// sums to demandShare of what the partition holds, whatever the pass saw.
// Added raw it swamped occupancy as passes got longer: per-stripe targets
// chased each pass's insertion split and cache-wide sizes fell behind their
// targets (DESIGN.md §12).
func (e *Engine) Rebalance() { e.rebalance() }

// rebalance is Rebalance, returning the engine's access count as its collect
// loop summed it.
func (e *Engine) rebalance() (accesses uint64) {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	e.tmu.Lock()
	copy(e.goalScratch, e.targets)
	e.tmu.Unlock()
	// Collect: per stripe, one bounded critical section that exchanges the
	// demand buffer for a zeroed spare, copies the current sizes and reads
	// the access count (never reset by the engine, so the sum never falls).
	for g, st := range e.stripes {
		buf := e.spare[g]
		sizes := e.sizeScratch[g]
		st.mu.Lock()
		st.demand, buf = buf, st.demand
		copy(sizes, st.cache.Sizes())
		accesses += st.cache.Accesses()
		st.mu.Unlock()
		e.spare[g] = buf
	}
	// Weigh and apportion outside every stripe lock.
	nP := e.cfg.Parts
	for p := 0; p < nP; p++ {
		var demand, held float64
		for g := range e.stripes {
			demand += float64(e.spare[g][p])
			held += float64(e.sizeScratch[g][p]) + 1
		}
		scale := 0.0
		if demand > 0 {
			scale = demandShare * held / demand
		}
		for g := range e.stripes {
			e.weightScratch[g] = float64(e.spare[g][p])*scale + float64(e.sizeScratch[g][p]) + 1
		}
		e.apportionPart(p)
	}
	// The spare buffers must be zero before the next swap hands them to a
	// stripe as fresh counters.
	for g := range e.spare {
		for p := range e.spare[g] {
			e.spare[g][p] = 0
		}
	}
	e.applyTargets()
	return accesses
}

// demandShare is the weight of a pass's insertion split relative to current
// occupancy when a partition's target is re-apportioned across stripes.
const demandShare = 0.25

// apportionAll splits every partition's goal across stripes with the
// current weightScratch (callers hold rmu).
//
//fs:callerholds rmu
func (e *Engine) apportionAll() {
	for p := 0; p < e.cfg.Parts; p++ {
		e.apportionPart(p)
	}
}

// apportionPart fills perStripe[*][p] from goalScratch[p] and weightScratch
// (callers hold rmu).
//
//fs:callerholds rmu
func (e *Engine) apportionPart(p int) {
	alloc.Apportion(e.goalScratch[p], e.weightScratch, e.shareScratch, e.remScratch)
	for g := range e.stripes {
		e.perStripe[g][p] = e.shareScratch[g]
	}
}

// applyTargets installs the perStripe target vectors, taking each stripe
// lock in turn for exactly one SetTargets call. Callers hold rmu.
//
//fs:callerholds rmu
func (e *Engine) applyTargets() {
	for g, st := range e.stripes {
		tv := e.perStripe[g]
		st.mu.Lock()
		st.cache.SetTargets(tv)
		st.mu.Unlock()
	}
}

// Snapshot returns the cache-wide measurement state: every stripe's
// StatsSnapshot (taken one stripe lock at a time, in stripe index order)
// merged into one core.Snapshot. Counters, histograms and the Size, Target
// and MeanOccupancy columns add into cache-wide totals, except that on a
// coarse-ranked engine only the measured stripes (measureEvery) fill
// EvictFutility: the merged AEF is the mean over their evictions, Evictions
// counts every stripe's. It holds rmu, so no distribution pass is half
// applied underneath it and every Target column is the cache-wide target in
// force.
func (e *Engine) Snapshot() core.Snapshot {
	e.rmu.Lock()
	defer e.rmu.Unlock()
	var merged core.Snapshot
	for g, st := range e.stripes {
		countLock()
		st.mu.Lock()
		snap := st.cache.StatsSnapshot()
		st.mu.Unlock()
		if g == 0 {
			merged = snap
		} else {
			merged.Merge(snap)
		}
	}
	return merged
}

// PartSizes sums each partition's current decision size across stripes into
// dst (allocated when nil or too short) and returns it. Unlike Snapshot it
// copies no histograms, so an occupancy sampler can poll it often without
// deep-copying every stripe's measurement state.
func (e *Engine) PartSizes(dst []int) []int {
	if len(dst) < e.cfg.Parts {
		dst = make([]int, e.cfg.Parts)
	}
	dst = dst[:e.cfg.Parts]
	for i := range dst {
		dst[i] = 0
	}
	for _, st := range e.stripes {
		countLock()
		st.mu.Lock()
		sizes := st.cache.Sizes()
		for p, n := range sizes {
			dst[p] += n
		}
		st.mu.Unlock()
	}
	return dst
}

// CheckInvariants audits every stripe's controller with the sequential
// simulator's full invariant rescan, one stripe lock at a time, checks that
// every resident address sits in the stripe it routes to, and fails an engine
// none of whose stripes measures eviction futility.
func (e *Engine) CheckInvariants() error {
	if e.measured == 0 {
		return fmt.Errorf("shardcache: no stripe measures eviction futility")
	}
	for g, st := range e.stripes {
		st.mu.Lock()
		err := st.cache.CheckInvariants()
		for l := 0; err == nil && l < st.array.Lines(); l++ {
			if addr, ok := st.array.AddrOf(l); ok && e.stripeOf(addr) != g {
				err = fmt.Errorf("line %d holds %#x, which routes to stripe %d", l, addr, e.stripeOf(addr))
			}
		}
		st.mu.Unlock()
		if err != nil {
			return fmt.Errorf("stripe %d (shard %d): %w", g, g/e.perShard, err)
		}
	}
	return nil
}
