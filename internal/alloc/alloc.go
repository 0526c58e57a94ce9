package alloc

import (
	"fmt"
	"sync"

	"fscache/internal/xrand"
)

// logCap bounds the retained decision log; older entries are dropped.
const logCap = 256

// Config sizes an Allocator. Zero values get sensible defaults in New.
type Config struct {
	// Parts is the number of partitions (required, positive).
	Parts int
	// Lines is the total cache capacity in lines (required, positive).
	Lines int
	// ChunkLines is the allocation granularity in lines (default
	// max(Lines/64, 1)), and one chunk is every live partition's floor:
	// Parts must not exceed Lines/ChunkLines.
	ChunkLines int
	// EpochAccesses is the number of accesses, as PollTargets is told
	// them, per reallocation epoch (default 8×Lines).
	EpochAccesses int
	// SampleShift selects the 1/2^SampleShift spatial sampling rate shared
	// by every partition's profiler (default 3, i.e. 1/8).
	SampleShift uint
	// Objective picks targets from the epoch curves (default MaxHits).
	Objective Objective
	// Initial optionally sets the targets reported before the first epoch
	// closes (default even split of Lines over Parts).
	Initial []int
	// Seed drives the sampling salt.
	Seed uint64
}

// Decision records one epoch boundary: what the allocator saw and what it
// installed. Slices are private copies.
type Decision struct {
	// Epoch is the 1-based epoch index.
	Epoch int
	// Access is the cumulative access count last polled at the boundary.
	Access uint64
	// Targets is the per-partition line allocation in force after the
	// decision.
	Targets []int
	// Changed reports whether Targets differs from the previous epoch's.
	Changed bool
	// Divergence is the curve Divergence versus the previous epoch.
	Divergence float64
	// Drift reports Divergence > driftThreshold.
	Drift bool
	// MissRatio is the estimated aggregate miss ratio at the installed
	// targets (access-weighted over live partitions).
	MissRatio float64
}

// Allocator closes the measurement→targets loop online: every observed
// access feeds a per-partition sampled profiler, and the first PollTargets
// whose access count reaches the epoch's end snapshots the curves, has the
// objective recompute chunk targets, decays the profilers and logs the
// decision. The count is the caller's: the shardcache rebalancer sums its
// stripes', the scenario sim loop counts its own. Observe is safe for
// concurrent use; the unsampled fast path is one hash, and only sampled
// references (1/2^SampleShift of them) take the mutex. Driven
// single-threaded it is fully deterministic: equal seeds, accesses and polls
// give bit-identical decisions.
//
// All partitions share one sampling filter (same salt), the standard SHARDS
// arrangement: the sampled address set is identical across partitions, so
// per-partition curves are commensurable and the fast-path filter needs a
// single hash.
type Allocator struct {
	cfg    Config
	salt   uint64
	mask   uint64
	nChunk int

	mu sync.Mutex
	//fs:guardedby mu
	profs []*Profiler
	//fs:guardedby mu
	targets []int
	//fs:guardedby mu
	epochEnd, polled uint64 // the open epoch's closing count; the last polled
	//fs:guardedby mu
	dirty bool // targets changed since a poll last returned them
	//fs:guardedby mu
	epoch int
	//fs:guardedby mu
	prev *Curves
	//fs:guardedby mu
	log []Decision
	//fs:guardedby mu
	dropped uint64
}

// New builds an Allocator. It panics on non-positive Parts/Lines, on an
// Initial vector of the wrong length, and on infeasible floors (more
// partitions than the cache holds chunks).
func New(cfg Config) *Allocator { return newAllocator(cfg, 1) }

// newAllocator is New with profilers depthMul times as deep, which the tests
// use to show that depth beyond New's does not reach the decisions.
func newAllocator(cfg Config, depthMul int) *Allocator {
	if cfg.Parts <= 0 {
		panicf("Parts must be positive, got %d", cfg.Parts)
	}
	if cfg.Lines <= 0 {
		panicf("Lines must be positive, got %d", cfg.Lines)
	}
	if cfg.ChunkLines <= 0 {
		cfg.ChunkLines = cfg.Lines / 64
		if cfg.ChunkLines < 1 {
			cfg.ChunkLines = 1
		}
	}
	if cfg.EpochAccesses <= 0 {
		cfg.EpochAccesses = 8 * cfg.Lines
	}
	if cfg.SampleShift == 0 {
		cfg.SampleShift = 3
	}
	if cfg.Objective == nil {
		cfg.Objective = MaxHits{}
	}
	nChunk := cfg.Lines / cfg.ChunkLines
	if cfg.Parts > nChunk {
		panicf("infeasible floors: %d parts of at least %d lines exceed %d lines (%d chunks)",
			cfg.Parts, cfg.ChunkLines, cfg.Lines, nChunk)
	}
	if cfg.Initial != nil && len(cfg.Initial) != cfg.Parts {
		panicf("Initial has %d entries, want %d", len(cfg.Initial), cfg.Parts)
	}
	// The objectives read each curve on the chunk grid, which ends by Lines
	// estimated lines: sampled distance Lines>>SampleShift. Bins past that are
	// never read and, by LRU inclusion, those up to it are the same at any
	// greater depth: a deeper profiler costs memory and changes no decision.
	tags := depthMul * max(cfg.Lines>>cfg.SampleShift, 64)

	a := &Allocator{
		cfg:     cfg,
		nChunk:  nChunk,
		profs:   make([]*Profiler, cfg.Parts),
		targets: make([]int, cfg.Parts),
	}
	a.mu.Lock() // not yet escaped; taken for the lockcheck contract on profs/targets
	for p := range a.profs {
		// One shared sampling filter (cfg.Seed ⇒ same salt everywhere).
		a.profs[p] = NewProfiler(tags, cfg.SampleShift, cfg.Seed)
	}
	a.salt = a.profs[0].salt
	a.mask = a.profs[0].mask
	if cfg.Initial != nil {
		copy(a.targets, cfg.Initial)
	} else {
		EvenSplit(a.targets, cfg.Lines)
	}
	a.epochEnd = uint64(cfg.EpochAccesses)
	a.mu.Unlock()
	return a
}

// Observe feeds one access into the profile. part must be in [0, Parts): it
// panics otherwise, before taking the mutex, so that a caller who recovers
// (the server, per connection) has not wedged the allocator. Safe for
// concurrent use; unsampled accesses never block. It closes no epoch.
func (a *Allocator) Observe(part int, addr uint64) {
	if uint(part) >= uint(a.cfg.Parts) {
		panicf("Observe: partition %d out of range [0, %d)", part, a.cfg.Parts)
	}
	if hash := xrand.Mix64(addr ^ a.salt); hash&a.mask == 0 {
		a.mu.Lock()
		a.profs[part].touch(addr, hash)
		a.mu.Unlock()
	}
}

// PollTargets closes the epoch once accesses, the cache's cumulative access
// count (never decreasing), reaches its end. It returns a copy of the
// current targets and true the first time it is called after a reallocation
// changed them, and (nil, false) otherwise: the shardcache TargetSource
// contract, so rebalancer ticks install only on change.
func (a *Allocator) PollTargets(accesses uint64) ([]int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.polled = accesses
	if accesses >= a.epochEnd {
		a.closeEpochLocked()
	}
	if !a.dirty {
		return nil, false
	}
	a.dirty = false
	return append([]int(nil), a.targets...), true
}

// Targets returns a copy of the targets currently in force.
func (a *Allocator) Targets() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int(nil), a.targets...)
}

// Epoch returns the number of closed epochs.
func (a *Allocator) Epoch() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Log returns a copy of the retained decision log (oldest first) and the
// count of older entries dropped by the logCap bound.
func (a *Allocator) Log() ([]Decision, uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Decision(nil), a.log...), a.dropped
}

// Flush forces an epoch boundary now (e.g. at end of stream) at the last
// polled access count, however few accesses the epoch has seen.
func (a *Allocator) Flush() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closeEpochLocked()
}

//fs:callerholds mu
func (a *Allocator) closeEpochLocked() {
	cv := a.curvesLocked()
	div := Divergence(a.prev, cv)
	a.prev = snapshotCurves(cv)

	nLive := 0
	for _, l := range cv.Live {
		if l {
			nLive++
		}
	}
	changed := false
	if nLive > 0 {
		minChunks := make([]int, a.cfg.Parts)
		for p := range minChunks {
			if cv.Live[p] {
				minChunks[p] = 1
			}
		}
		chunks := a.cfg.Objective.Allocate(cv, minChunks)
		tg := a.chunksToLines(chunks, cv.Live)
		a.checkTargets(tg, cv.Live)
		changed = !equalInts(tg, a.targets)
		if changed {
			copy(a.targets, tg)
			a.dirty = true
		}
	}

	a.epoch++
	d := Decision{
		Epoch:      a.epoch,
		Access:     a.polled,
		Targets:    append([]int(nil), a.targets...),
		Changed:    changed,
		Divergence: div,
		Drift:      div > driftThreshold,
		MissRatio:  aggregateMissRatio(cv, a.targets),
	}
	if len(a.log) >= logCap {
		drop := len(a.log) - logCap + 1
		a.log = append(a.log[:0], a.log[drop:]...)
		a.dropped += uint64(drop)
	}
	a.log = append(a.log, d)

	for _, p := range a.profs {
		p.Decay()
	}
	a.epochEnd = a.polled + uint64(a.cfg.EpochAccesses)
}

// curvesLocked snapshots every partition's hit curve on the chunk grid.
//
//fs:callerholds mu
func (a *Allocator) curvesLocked() *Curves {
	cv := &Curves{
		Chunk:    a.cfg.ChunkLines,
		NChunk:   a.nChunk,
		Hits:     make([][]uint64, a.cfg.Parts),
		Accesses: make([]uint64, a.cfg.Parts),
		Live:     make([]bool, a.cfg.Parts),
	}
	for p, prof := range a.profs {
		// The allocator's fast path never calls Touch for unsampled
		// accesses, so the unbiased per-partition volume estimate is the
		// sampled count scaled back by the sampling rate.
		cv.Accesses[p] = prof.SampledCount() << prof.shift
		cv.Live[p] = prof.SampledCount() > 0
		cv.Hits[p] = prof.hitCurve(a.cfg.ChunkLines, a.nChunk)
	}
	return cv
}

// chunksToLines converts a chunk allocation to lines, handing the
// chunk-grid remainder (Lines − NChunk×Chunk) to the live partition with
// the largest allocation so the totals always sum to Lines.
func (a *Allocator) chunksToLines(chunks []int, live []bool) []int {
	out := make([]int, len(chunks))
	big := -1
	for p, c := range chunks {
		out[p] = c * a.cfg.ChunkLines
		if live[p] && (big < 0 || out[p] > out[big]) {
			big = p
		}
	}
	if rem := a.cfg.Lines - a.nChunk*a.cfg.ChunkLines; rem > 0 && big >= 0 {
		out[big] += rem
	}
	return out
}

// checkTargets panics when an objective broke its contract — the
// enforcement layers trust targets blindly, so corrupt ones must not
// propagate.
func (a *Allocator) checkTargets(tg []int, live []bool) {
	sum := 0
	for p, t := range tg {
		if live[p] {
			if t < a.cfg.ChunkLines {
				panicf("objective %T gave live partition %d only %d lines, floor %d",
					a.cfg.Objective, p, t, a.cfg.ChunkLines)
			}
		} else if t != 0 {
			panicf("objective %T gave dead partition %d %d lines",
				a.cfg.Objective, p, t)
		}
		sum += t
	}
	if sum > a.cfg.Lines {
		panicf("objective %T allocated %d lines, cache has %d",
			a.cfg.Objective, sum, a.cfg.Lines)
	}
}

// aggregateMissRatio is the access-weighted miss ratio across live
// partitions at the given line targets.
func aggregateMissRatio(cv *Curves, targets []int) float64 {
	var acc, miss float64
	for p := range cv.Live {
		if !cv.Live[p] || cv.Accesses[p] == 0 {
			continue
		}
		c := targets[p] / cv.Chunk
		if c > cv.NChunk {
			c = cv.NChunk
		}
		acc += float64(cv.Accesses[p])
		miss += float64(cv.Accesses[p]) * cv.MissRatio(p, c)
	}
	if acc <= 0 {
		return 1
	}
	return miss / acc
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// panicf panics with the package-prefixed formatted message.
func panicf(format string, args ...any) {
	panic(fmt.Sprintf("alloc: "+format, args...))
}
