// Package shardcache is the concurrent layer over the single-threaded
// simulator: it splits one logical Futility-Scaling cache into independently
// locked domains, each owning its own core.Cache, ranker and
// feedback-controller state, so multiple goroutines can drive the cache at
// once while every invariant the sequential simulator enforces keeps holding
// per domain.
//
// The cache is split into K lock *stripes* over contiguous sub-ranges of its
// sets, each stripe a smaller set-associative array with the same
// associativity behind its own mutex. Striping follows the hardware idiom of
// a banked array indexed by one hash: the engine builds one H3 function over
// the *global* set index space, and the top log2(K) bits of an address's
// hash are its stripe while the bits below are its set within the stripe,
// whose array indexes with the same function. An address therefore sits in
// exactly the set a monolithic H3-indexed array of all the sets, built from
// the same seed, gives it: the stripes are a lock-split of that array. The
// router's one hash of an address serves both: every request path locks its
// stripe with LockStripe and hands it the hash (Locked.at), so H3 runs once
// a request. An access contends only with accesses to 1/K of the sets.
//
// Partition targets stay a cache-wide contract: SetTargets installs global
// per-partition line targets and gives each of the K stripes 1/K of each
// partition's target. A stripe is one bank of that single hash-indexed
// array, so it sees a uniform 1/K slice of every partition's traffic, and
// an even split is the share it should hold; the remainders rotate across
// stripes so that each stripe's targets sum to exactly its lines whenever
// the cache-wide targets sum to Lines (CheckInvariants holds both sums).
// Rebalancer (rebalancer.go) polls a TargetSource on a background ticker
// and installs what it offers, so serving layers never retarget from a
// request path.
//
// Concurrency contract: Access, Batch (batch.go), Lock, SetTargets,
// Snapshot and CheckInvariants are all safe for concurrent use. A
// stripe mutex is only ever held for one bounded cache operation, one batched
// run of them, or a Locked holder's bounded work; the engine never holds two
// stripe locks at once. Determinism under concurrency is a protocol property,
// not an engine property — see driver_test.go.
package shardcache

import (
	"errors"
	"fmt"
	"sync"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/hashing"
	"fscache/internal/stats"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// Config assembles a striped cache.
type Config struct {
	// Lines is the total line count across all stripes (power of two).
	Lines int
	// Ways is the associativity of every stripe (power of two).
	Ways int
	// Stripes is the lock-domain count (power of two, at most Lines/Ways
	// sets; 0 means 1).
	Stripes int
	// Shards multiplies Stripes (power of two; 0 means 1): Shards S with
	// Stripes K builds the engine Stripes S·K does. It is kept only because
	// bench/serve.go sets Shards: 4, Stripes: 4.
	Shards int
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
// over a contiguous sub-range of the engine's sets.
type stripe struct {
	mu sync.Mutex
	//fs:guardedby mu
	cache *core.Cache
	// array is cache's array, kept for Locked's lookups, the router's hash
	// and the placement audit in Engine.CheckInvariants.
	//fs:guardedby mu
	array *cachearray.SetAssoc
	// The padding fills the mutex and the two pointers (24 bytes) out to
	// stripeBytes, so that no two stripes' mutexes share a cache line and
	// one core's lock traffic does not take another stripe's line from the
	// core using it (TestStripeFillsItsLines).
	_ [stripeBytes - 24]byte
}

// stripeBytes is the size of a stripe: a cache line.
const stripeBytes = 64

// Engine is the concurrent striped cache.
//
// Lock order: mu before any stripe.mu. The access path takes only a single
// stripe.mu; SetTargets, Snapshot and CheckInvariants hold mu while they
// take one stripe lock at a time. fslint's lockcheck analyzer enforces both
// the guard discipline and the declared order.
//
//fs:lockorder Engine.mu stripe.mu
type Engine struct {
	cfg         Config
	router      *hashing.H3
	stripeShift uint // hashing.ShardShift(sets, len(stripes)): set index → stripe
	stripes     []*stripe
	measured    int // stripes that record eviction futility

	// mu serializes target installs and guards the cache-wide
	// per-partition goals and the scratch a stripe's share is built in.
	mu sync.Mutex
	//fs:guardedby mu
	targets []int
	//fs:guardedby mu
	share []int
}

// measureEvery is the AEF sampling period over lock domains. The exact
// reference ranker costs a coarse stripe more than its timestamps do, so only
// stripes with index g % measureEvery == 0 carry it; the rest have no
// core.Config.Reference and so record no eviction futility. Stripes are
// uniform slices of the H3 set-index space, so this is UCP's dynamic set
// sampling with no per-access test.
const measureEvery = 4

// New builds an engine from cfg. It panics when cfg.Validate fails
// (experiment-setup programming errors, matching core.New).
func New(cfg Config) *Engine {
	return newEngine(cfg, func(g int) bool { return g%measureEvery == 0 })
}

// Validate reports the first inconsistency in cfg's geometry or partition
// count, or nil: the check New panics on, for a command to report a bad flag
// as a usage error.
func (cfg Config) Validate() error {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	switch {
	case !pow2(cfg.Lines):
		return errors.New("Lines must be a positive power of two")
	case !pow2(cfg.Ways):
		return errors.New("Ways must be a positive power of two")
	case cfg.Stripes != 0 && !pow2(cfg.Stripes):
		return errors.New("Stripes must be a positive power of two")
	case cfg.Shards != 0 && !pow2(cfg.Shards):
		return errors.New("Shards must be a positive power of two")
	case cfg.Parts <= 0:
		return errors.New("Parts must be positive")
	case cfg.Ways > cfg.Lines:
		return errors.New("Ways exceed Lines")
	case cfg.stripes() > cfg.Lines/cfg.Ways:
		return errors.New("more lock stripes than sets")
	}
	return nil
}

// stripes is the lock-domain count cfg asks for.
func (cfg Config) stripes() int { return max(cfg.Stripes, 1) * max(cfg.Shards, 1) }

// newEngine is New with the choice of measured stripes open, so tests can
// compare the sampled engine against an all-measured one.
func newEngine(cfg Config, isMeasured func(g int) bool) *Engine {
	if err := cfg.Validate(); err != nil {
		panic("shardcache: " + err.Error())
	}
	sets := cfg.Lines / cfg.Ways
	nStripes := cfg.stripes()
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
		}
		stripes[g] = &stripe{cache: core.New(cc), array: arr}
	}
	return &Engine{
		cfg:         cfg,
		router:      router,
		stripeShift: hashing.ShardShift(sets, nStripes),
		stripes:     stripes,
		measured:    measured,
		targets:     make([]int, cfg.Parts),
		share:       make([]int, cfg.Parts),
	}
}

// Stripes returns the lock-domain count.
func (e *Engine) Stripes() int { return len(e.stripes) }

// Parts returns the partition count.
func (e *Engine) Parts() int { return e.cfg.Parts }

// Lines returns the total line count across all stripes.
func (e *Engine) Lines() int { return e.cfg.Lines }

// route returns an address's hash under the engine's one H3 and the stripe
// it routes to: the hash's top log2(Stripes) set-index bits. The stripe's
// array takes its set from the same hash (SetAssoc.Hashed).
//
//fs:allocfree
func (e *Engine) route(addr uint64) (hash uint64, g int) {
	stats.CountH3()
	hash = e.router.Hash(addr)
	return hash, int(hash >> e.stripeShift)
}

// stripeOf returns the stripe an address routes to.
func (e *Engine) stripeOf(addr uint64) int {
	_, g := e.route(addr)
	return g
}

// Access performs one cache access for partition part on the stripe the
// address routes to, holding only that stripe's lock. The result's Line and
// EvictedLine number lines within that stripe, as every access's do.
//
//fs:allocfree
func (e *Engine) Access(addr uint64, part int) core.AccessResult {
	h := e.Lock(addr)
	res := h.Access(addr, part)
	h.Unlock()
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

// Lock takes the lock of the stripe addr routes to, whose Lookup and Access
// of addr then reuse the router's hash.
func (e *Engine) Lock(addr uint64) Locked {
	hash, g := e.route(addr)
	return e.LockStripe(g).at(addr, hash)
}

// LockStripe takes the lock of stripe g, 0 ≤ g < Stripes().
func (e *Engine) LockStripe(g int) Locked {
	st := e.stripes[g]
	stats.CountLock()
	st.mu.Lock()
	return Locked{st, g}
}

// at hands the held stripe's array addr's router hash (SetAssoc.Hashed), so
// h's Lookup and Access of addr hash nothing, and returns h.
//
//fs:callerholds mu
//fs:allocfree
func (h Locked) at(addr, hash uint64) Locked {
	h.st.array.Hashed(addr, hash)
	return h
}

// Unlock releases the stripe.
func (h Locked) Unlock() { h.st.mu.Unlock() }

// Stripe returns the held stripe's index.
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
func (h Locked) Access(addr uint64, part int) core.AccessResult {
	return h.st.cache.Access(addr, part, trace.NoNextUse)
}

// SetTargets installs cache-wide per-partition line targets, giving each of
// the K stripes target/K of each partition. Partition p's target%K
// remainder lines go one a stripe, starting where partition p-1's ended, so
// each partition's stripe targets sum to its target and, when the targets
// sum to Lines, each stripe's to its Lines/K. len(targets) must equal Parts.
func (e *Engine) SetTargets(targets []int) {
	if len(targets) != e.cfg.Parts {
		panic("shardcache: SetTargets length mismatch")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	copy(e.targets, targets)
	k := len(e.stripes)
	for g, st := range e.stripes {
		first := 0 // the stripe partition p's remainder starts at
		for p, t := range e.targets {
			// Stripes first, first+1, … (mod k) take one remainder line each.
			e.share[p] = t / k
			if (g-first+k)%k < t%k {
				e.share[p]++
			}
			first = (first + t%k) % k
		}
		stats.CountLock()
		st.mu.Lock()
		st.cache.SetTargets(e.share)
		st.mu.Unlock()
	}
}

// Targets returns a copy of the cache-wide per-partition targets.
func (e *Engine) Targets() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.targets...)
}

// Rebalance reads the engine's access count and discards it. Stripe targets
// are fixed by SetTargets, so there is nothing to redistribute; Rebalance is
// kept only because the benchmark harness (bench/layers.go) times it.
func (e *Engine) Rebalance() { e.accesses() }

// accesses sums the stripes' access counts, one stripe lock at a time. No
// engine path resets a stripe's statistics (core.Cache.ResetStats), so the
// sum never falls.
func (e *Engine) accesses() (n uint64) {
	for _, st := range e.stripes {
		stats.CountLock()
		st.mu.Lock()
		n += st.cache.Accesses()
		st.mu.Unlock()
	}
	return n
}

// Snapshot returns the cache-wide measurement state: every stripe's
// StatsSnapshot (taken one stripe lock at a time, in stripe index order)
// merged into one core.Snapshot. Counters, histograms and the Size, Target
// and MeanOccupancy columns add into cache-wide totals, except that on a
// coarse-ranked engine only the measured stripes (measureEvery) fill
// EvictFutility: the merged AEF is the mean over their evictions, Evictions
// counts every stripe's. It holds mu, so no target install is half applied
// underneath it and every Target column is the cache-wide target in force.
func (e *Engine) Snapshot() core.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	var merged core.Snapshot
	for g, st := range e.stripes {
		stats.CountLock()
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
		stats.CountLock()
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
// every resident address sits in the stripe it routes to, that each
// partition's stripe targets sum to its cache-wide target and, when those
// sum to Lines, that each stripe's targets sum to its lines, and fails an
// engine none of whose stripes measures eviction futility.
func (e *Engine) CheckInvariants() error {
	if e.measured == 0 {
		return fmt.Errorf("shardcache: no stripe measures eviction futility")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	whole := 0
	for _, t := range e.targets {
		whole += t
	}
	partSums := make([]int, e.cfg.Parts)
	for g, st := range e.stripes {
		stats.CountLock()
		st.mu.Lock()
		err := st.cache.CheckInvariants()
		for l := 0; err == nil && l < st.array.Lines(); l++ {
			if addr, ok := st.array.AddrOf(l); ok && e.stripeOf(addr) != g {
				err = fmt.Errorf("line %d holds %#x, which routes to stripe %d", l, addr, e.stripeOf(addr))
			}
		}
		sum := 0
		for p, t := range st.cache.Targets() {
			partSums[p] += t
			sum += t
		}
		if err == nil && whole == e.cfg.Lines && sum != st.array.Lines() {
			err = fmt.Errorf("targets sum to %d, want the stripe's %d lines", sum, st.array.Lines())
		}
		st.mu.Unlock()
		if err != nil {
			return fmt.Errorf("stripe %d: %w", g, err)
		}
	}
	for p, sum := range partSums {
		if sum != e.targets[p] {
			return fmt.Errorf("shardcache: partition %d's stripe targets sum to %d, want its target %d", p, sum, e.targets[p])
		}
	}
	return nil
}
