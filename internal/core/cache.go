package core

import (
	"fmt"
	"math"

	"fscache/internal/cachearray"
	"fscache/internal/futility"
	"fscache/internal/recency"
	"fscache/internal/stats"
	"fscache/internal/trace"
)

// Config assembles a partitioned cache.
type Config struct {
	// Array is the cache array organization.
	Array cachearray.Array
	// Ranker is the decision futility ranking used by the scheme.
	Ranker futility.Ranker
	// Reference, if non-nil, is an exact ranker (a *futility.CoarseTS panics)
	// kept purely for measurement: eviction futility (AEF) is taken from it.
	// If nil, an exact Ranker doubles as the reference and a CoarseTS one,
	// whose futility is an estimate, leaves the cache unmeasured:
	// PartStats.EvictFutility is nil (empty) and EvictedFutility 0. Decisions
	// never read the reference, so nothing else depends on it.
	Reference futility.Ranker
	// Scheme is the partitioning scheme.
	Scheme Scheme
	// Parts is the number of partitions (including any scheme-private
	// pseudo-partition such as Vantage's unmanaged region).
	Parts int
}

// histBuckets is the eviction-futility histogram resolution.
const histBuckets = 64

// PartStats aggregates per-partition measurements.
type PartStats struct {
	Hits        uint64
	Misses      uint64
	Insertions  uint64
	Evictions   uint64
	Demotions   uint64
	ForcedEvict uint64
	// EvictFutility is the associativity distribution: the reference
	// futility of every line evicted from this partition. It is nil, which
	// reads as empty, on an unmeasured cache (Config.Reference).
	EvictFutility *stats.Histogram
	// occupancySum is the partition's size summed over the first
	// occSampled accesses. It is brought up to date only when the size is
	// about to change (resize) or the sum is read (creditOccupancy), so the
	// per-access cost does not grow with the partition count.
	occupancySum uint64
	occSampled   uint64
}

// AEF returns the partition's average eviction futility, or 0 — outside
// futility's (0, 1] — when EvictFutility.N() == 0 (no eviction, or unmeasured).
func (p *PartStats) AEF() float64 { return p.EvictFutility.Mean() }

// MissRate returns misses/(hits+misses), or 0 with no accesses.
func (p *PartStats) MissRate() float64 {
	t := p.Hits + p.Misses
	if t == 0 {
		return 0
	}
	return float64(p.Misses) / float64(t)
}

// A line's partition id is one unsigned code (Cache.meta). A resident line
// has two partitions: its owner, whose application inserted it, and the
// partition it counts against for sizing decisions. They differ only after a
// demotion (Vantage): the demoted line belongs to the unmanaged
// pseudo-partition for sizing but its eviction futility is still measured
// within its owner's working set. A cache demotes into one partition only
// (Cache.demoteTo), so the code says which of the two cases holds:
//
//	code = 0                   free (noLine)
//	1 ≤ code ≤ Parts           resident in partition code−1, its owner
//	Parts < code ≤ 2·Parts     owner code−1−Parts, demoted into demoteTo
//
// The codes are a recency.Table of 8-bit halves bounded by 2·Parts: 1 byte a
// line while 2·Parts < 256 (at most 127 partitions), 2 bytes from there up to
// New's limit of MaxInt16 partitions, the way the paper's §V hardware spends
// ⌈log₂N⌉ bits a line on the partition ID.
const noLine = 0

// maxCode is the largest partition code of a cache of parts partitions.
func maxCode(parts int) int32 { return int32(2 * parts) }

// demotedID is the code of a line of partition owner demoted into demoteTo.
func (c *Cache) demotedID(owner int) int32 { return int32(c.parts + 1 + owner) }

// ownerOf returns the partition that inserted line, or −1 for a free line.
//
//fs:allocfree
func (c *Cache) ownerOf(line int) int {
	id := int(c.meta.At(int32(line))) - 1 // −1 for noLine
	if id >= c.parts {
		return id - c.parts
	}
	return id
}

// partOf returns the partition line counts against, or −1 for a free line.
//
//fs:allocfree
func (c *Cache) partOf(line int) int {
	if id := int(c.meta.At(int32(line))); id <= c.parts {
		return id - 1
	}
	return c.demoteTo
}

// Cache is the partitioned-cache controller: the paper's three-component
// cache model wired together.
//
// Cache is not safe for concurrent use: every method, including the
// read-only StatsSnapshot, must be externally serialized. This is the
// concurrency boundary of the simulator — internal/shardcache builds a
// concurrent engine out of single-threaded Caches by giving each stripe its
// own Cache and mutex, never by sharing one Cache across goroutines.
type Cache struct {
	array      cachearray.Array
	ranker     futility.Ranker
	ref        futility.Ranker // Config.Reference; without it an exact ranker measures
	unmeasured bool            // no exact ranker to measure with: coarse, no Reference
	scheme     Scheme
	counter    Counter // the scheme, if it counts traffic; else nil
	parts      int

	meta recency.Table[uint8] // per-line partition code, indexed by line; noLine for an invalid line
	// demoteTo is the partition every demoted line counts against: the first
	// demotion's target (a later one to any other partition panics), −1
	// before any.
	demoteTo int

	// sizes (decision sizes) and targets, indexed by partition, are the
	// pipeline's one copy of each: the scheme reads both through Bind, and a
	// futility.SizeBinder ranker the sizes through BindSizes.
	sizes   []int
	targets []int

	seq      uint64
	accesses uint64
	pstats   []PartStats

	candBuf   []Candidate
	worstBuf  []Candidate
	candLines []int             // reused Candidates destination
	moveBuf   []cachearray.Move // reused Install move list
	// decObs, when installed, observes every replacement decision; observers
	// must honor the pipeline's no-allocation contract.
	//fs:allocfree
	decObs   DecisionObserver
	freer    cachearray.Freer
	allCands bool // the array is a *cachearray.FullyAssoc, whose every line is a candidate
	worst    futility.WorstTracker

	// Hot-path devirtualization. The two rankers every large experiment runs
	// (§V's coarse timestamps and the exact LRU recency index) are pinned
	// as concrete types so the per-access OnHit call skips interface dispatch
	// and can inline; other rankers fall back to the interface.
	coarse *futility.CoarseTS
	lru    *futility.ExactLRU
	// rawOnly is set when nothing reads Candidate.Futility: FSFeedback, whose
	// Decide reads only a candidate's Line, Part and Raw, over the coarse
	// ranker, which never measures (eviction futility comes from the
	// Reference, or is not taken).
	rawOnly bool
	// pruned is set when a FullSelector scheme decides over the exact LRU
	// ranker; partBest is its scratch in choose: one plus the index of each
	// partition's oldest candidate so far, 0 between misses.
	pruned   bool
	partBest []int32
}

// New builds a controller from cfg. It panics on inconsistent configuration
// (these are programming errors in experiment setup, not runtime
// conditions).
func New(cfg Config) *Cache {
	if cfg.Array == nil || cfg.Ranker == nil || cfg.Scheme == nil {
		panic("core: Array, Ranker and Scheme are required")
	}
	if cfg.Parts <= 0 {
		panic("core: Parts must be positive")
	}
	if cfg.Parts > math.MaxInt16 {
		// Owner Parts−1 demoted is code 2·Parts, which must fit two bytes.
		panic("core: Parts exceeds the 16-bit per-line partition code")
	}
	if _, coarse := cfg.Reference.(*futility.CoarseTS); coarse {
		panic("core: a Reference must be exact, not coarse timestamps")
	}
	c := &Cache{
		array:    cfg.Array,
		ranker:   cfg.Ranker,
		ref:      cfg.Reference,
		scheme:   cfg.Scheme,
		parts:    cfg.Parts,
		meta:     recency.NewTable[uint8](cfg.Array.Lines(), maxCode(cfg.Parts)),
		demoteTo: -1,
		sizes:    make([]int, cfg.Parts),
		targets:  make([]int, cfg.Parts),
		pstats:   make([]PartStats, cfg.Parts),
		partBest: make([]int32, cfg.Parts),
	}
	c.freer, _ = cfg.Array.(cachearray.Freer)
	_, c.allCands = cfg.Array.(*cachearray.FullyAssoc)
	_, fullSel := cfg.Scheme.(FullSelector)
	c.counter, _ = cfg.Scheme.(Counter)
	c.worst, _ = cfg.Ranker.(futility.WorstTracker)
	switch r := cfg.Ranker.(type) {
	case *futility.CoarseTS:
		c.coarse = r
	case *futility.ExactLRU:
		c.lru = r
	}
	c.unmeasured = c.coarse != nil && c.ref == nil
	c.resetPartStats()
	_, decidesOnRaw := cfg.Scheme.(*FSFeedback)
	c.rawOnly = decidesOnRaw && c.coarse != nil
	c.pruned = fullSel && c.lru != nil
	if c.allCands && (!fullSel || c.worst == nil) {
		panic("core: fully-associative arrays need a FullSelector scheme and a WorstTracker ranker")
	}
	c.scheme.Bind(c.sizes, c.targets)
	if b, ok := cfg.Ranker.(futility.SizeBinder); ok {
		b.BindSizes(c.sizes)
	}
	return c
}

// SetTargets installs per-partition target sizes (in lines), which the
// scheme sees through its Bind view. len(targets) must equal Parts.
func (c *Cache) SetTargets(targets []int) {
	if len(targets) != c.parts {
		panic("core: SetTargets length mismatch")
	}
	copy(c.targets, targets)
}

// Targets returns the current target sizes (read-only view).
func (c *Cache) Targets() []int { return c.targets }

// Sizes returns the live actual sizes (read-only view).
func (c *Cache) Sizes() []int { return c.sizes }

// Parts returns the partition count.
func (c *Cache) Parts() int { return c.parts }

// Stats returns the per-partition statistics (live; do not mutate).
func (c *Cache) Stats(part int) *PartStats { return &c.pstats[part] }

// Accesses returns the total access count.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Resident reports whether the array line holds an address. The per-line
// partition code is the pipeline's one record of residency: the rankers keep
// none and are told only about lines the cache holds.
func (c *Cache) Resident(line int) bool { return c.meta.At(int32(line)) != noLine }

// MeanOccupancy returns the partition's time-averaged size in lines,
// sampled at every access.
func (c *Cache) MeanOccupancy(part int) float64 {
	if c.accesses == 0 {
		return 0
	}
	c.creditOccupancy(part, c.accesses)
	return float64(c.pstats[part].occupancySum) / float64(c.accesses)
}

// ResetStats clears all measurement state (hit/miss counters, eviction
// futility histograms, occupancy accumulators) without
// touching cache contents. Experiments call it after warmup so reported
// distributions exclude the fill phase.
func (c *Cache) ResetStats() {
	c.resetPartStats()
	c.accesses = 0
}

// resetPartStats zeroes every partition's statistics, with an empty
// eviction-futility histogram where the cache measures one: an unmeasured
// cache allocates none (a nil Histogram reads as empty).
func (c *Cache) resetPartStats() {
	for i := range c.pstats {
		c.pstats[i] = PartStats{}
		if !c.unmeasured {
			c.pstats[i].EvictFutility = stats.NewHistogram(histBuckets)
		}
	}
}

// DecisionObserver observes every replacement decision after the scheme has
// made it but before the eviction is applied: cands is the candidate slice
// the scheme saw (the array's candidates on the set-associative path, the
// per-partition worst list on the fully-associative path), victim indexes
// into it, and forced reports a forced eviction. The slice aliases a reused
// buffer —
// observers must copy what they keep — and the observer runs on the miss
// path, so it must honor the pipeline's steady-state no-allocation contract
// (the scenario experiment's counterfactual re-ranker reads the slice in
// place and writes only vectors it sized up front).
//
// The observer sees the candidates exactly as the scheme saw them, and its
// installation changes nothing the cache computes: FSFeedback over CoarseTS
// carries Raw alone (Futility is zero and the coarse CDF untouched), and a
// FullSelector scheme over ExactLRU carries Futility and Raw on each
// partition's least recent candidate only (FullSelector). An observer that
// wants more ranks the candidates itself.
type DecisionObserver func(cands []Candidate, insertPart, victim int, forced bool)

// SetDecisionObserver installs f (nil removes any installed observer).
// Observers see decisions, not hits or free-line fills: the callback fires
// exactly once per eviction of a valid line.
func (c *Cache) SetDecisionObserver(f DecisionObserver) { c.decObs = f }

// AccessResult reports what one access did.
type AccessResult struct {
	// Hit reports whether the access hit.
	Hit bool
	// Evicted reports whether a valid line was evicted.
	Evicted bool
	// Line is the array line index that holds the address after the
	// access: the line it hit, or the one it was installed in. Lines are
	// numbered within the Cache's own array (for a shardcache engine, within
	// the address's stripe); callers keep per-line state of their own at
	// it.
	Line int
	// EvictedLine is the array line index the victim occupied (valid when
	// Evicted), numbered like Line. Differential tests compare it against a
	// reference model to pin victim identity, not just victim statistics.
	EvictedLine int
	// EvictedPart is the owner partition of the evicted line (valid when
	// Evicted).
	EvictedPart int
	// EvictedAddr is the address the victim line held (valid when Evicted).
	// Reference models that track residency by address (the server's
	// model test) drop the victim by it.
	EvictedAddr uint64
	// EvictedFutility is the reference futility of the evicted line (valid
	// when Evicted, on a measured cache; 0 on an unmeasured one).
	EvictedFutility float64
}

// Access performs one cache access for partition part. nextUse is the
// trace's precomputed next-use index for OPT ranking (trace.NoNextUse when
// unknown or unused).
//
// Access is the simulator's hottest function; it is verified
// allocation-free (steady state) by the fslint allocfree analyzer, with
// the compiler's escape analysis as a cross-check.
//
//fs:allocfree
func (c *Cache) Access(addr uint64, part int, nextUse int64) AccessResult {
	if part < 0 || part >= c.parts {
		panicPartRange(part)
	}
	c.seq++
	c.accesses++
	ctx := futility.Context{Seq: c.seq, NextUse: nextUse}

	if line := c.array.Lookup(addr); line >= 0 {
		owner := int(c.meta.At(int32(line))) - 1 // a resident line is never noLine
		dp := owner
		if owner >= c.parts { // demoted
			owner, dp = owner-c.parts, c.demoteTo
		}
		c.pstats[owner].Hits++
		switch {
		case c.coarse != nil:
			c.coarse.OnHit(line, dp, ctx)
		case c.lru != nil:
			c.lru.OnHit(line, dp, ctx)
		default:
			c.ranker.OnHit(line, dp, ctx)
		}
		if c.ref != nil {
			c.ref.OnHit(line, owner, ctx)
		}
		return AccessResult{Hit: true, Line: line}
	}

	c.pstats[part].Misses++
	res := AccessResult{}

	victim := -1
	if c.freer != nil {
		victim = c.freer.FreeLine(addr)
	}
	if victim < 0 && c.allCands {
		// FreeLine found no free line, so every line is valid: no list to copy.
		victim = c.chooseFull(part)
	} else if victim < 0 {
		cands := c.array.Candidates(addr, c.candLines[:0])
		c.candLines = cands
		// A line is invalid exactly when it carries no partition
		// (CheckInvariants), which saves asking the array about each way.
		for _, l := range cands {
			if c.meta.At(int32(l)) == noLine {
				victim = l
				break
			}
		}
		if victim < 0 {
			victim = c.choose(cands, part)
		}
	}

	// Evict the victim if it holds a valid line.
	if vaddr, valid := c.array.AddrOf(victim); valid {
		dp, owner := c.partOf(victim), c.ownerOf(victim)
		ps := &c.pstats[owner]
		ps.Evictions++
		if !c.unmeasured {
			// With a dedicated reference ranker, futility is measured within
			// the owner's working set (demotions do not move reference state);
			// when the decision ranker doubles as reference, it tracks the
			// line under its decision partition.
			if c.ref != nil {
				res.EvictedFutility, _ = c.ref.FutilityRaw(victim, owner)
			} else {
				res.EvictedFutility, _ = c.ranker.FutilityRaw(victim, dp)
			}
			ps.EvictFutility.Add(res.EvictedFutility)
		}
		c.ranker.OnEvict(victim, dp)
		if c.ref != nil {
			c.ref.OnEvict(victim, owner)
		}
		c.resize(dp, -1)
		if c.counter != nil {
			c.counter.OnEviction(dp)
		}
		res.Evicted = true
		res.EvictedLine = victim
		res.EvictedPart = owner
		res.EvictedAddr = vaddr
		c.meta.Put(int32(victim), noLine)
	}

	// addr lands in the victim, or in the line the last relocation vacated
	// (Array.Install), so it is checked there instead of looked up again.
	line := victim
	c.moveBuf = c.array.Install(addr, victim, c.moveBuf[:0])
	for _, m := range c.moveBuf {
		c.ranker.OnMove(m.From, m.To, c.partOf(m.From))
		if c.ref != nil {
			c.ref.OnMove(m.From, m.To, c.ownerOf(m.From))
		}
		c.meta.Put(int32(m.To), c.meta.At(int32(m.From)))
		c.meta.Put(int32(m.From), noLine)
		line = m.From
	}
	if got, valid := c.array.AddrOf(line); !valid || got != addr {
		panic("core: address not resident after Install")
	}
	res.Line = line
	c.meta.Put(int32(line), int32(part)+1)
	c.resize(part, 1) // before OnInsert: a SizeBinder ranker ticks at the new size
	c.ranker.OnInsert(line, part, ctx)
	if c.ref != nil {
		c.ref.OnInsert(line, part, ctx)
	}
	c.pstats[part].Insertions++
	if c.counter != nil {
		c.counter.OnInsert(part)
	}
	return res
}

// choose runs the scheme over valid candidates, applying demotions.
//
//fs:allocfree
func (c *Cache) choose(cands []int, insertPart int) int {
	c.candBuf = c.candBuf[:0]
	if c.rawOnly {
		// Nothing reads Candidate.Futility: the decision costs one timestamp
		// subtraction per candidate and leaves the CDF alone.
		for _, l := range cands {
			p := c.partOf(l)
			c.candBuf = append(c.candBuf, Candidate{Line: l, Part: p, Raw: c.coarse.Distance(l, p)})
		}
	} else if c.pruned {
		// Inside a partition α is common and slot order is rank order, so a
		// slot comparison per candidate finds each partition's only possible
		// victim and the rank is computed for those alone. The others keep
		// their places with zero Futility and Raw, which no FullSelector picks:
		// list order, tie-breaks and the victim's index are the full list's.
		best := c.partBest
		for i, l := range cands {
			p := c.partOf(l)
			c.candBuf = append(c.candBuf, Candidate{Line: l, Part: p})
			if b := best[p]; b == 0 || c.lru.Older(l, cands[b-1]) {
				best[p] = int32(i) + 1
			}
		}
		for i := range c.candBuf {
			if cand := &c.candBuf[i]; int(best[cand.Part]) == i+1 {
				best[cand.Part] = 0
				cand.Futility, cand.Raw = c.lru.FutilityRaw(cand.Line, cand.Part)
			}
		}
	} else {
		for _, l := range cands {
			p := c.partOf(l)
			f, raw := c.ranker.FutilityRaw(l, p)
			c.candBuf = append(c.candBuf, Candidate{Line: l, Part: p, Futility: f, Raw: raw})
		}
	}
	pool := c.candBuf
	d := c.scheme.Decide(pool, insertPart)
	if d.Victim < 0 || d.Victim >= len(pool) {
		panic("core: scheme returned victim out of range")
	}
	if c.decObs != nil {
		c.decObs(pool, insertPart, d.Victim, d.Forced)
	}
	for _, di := range d.Demote {
		if di == d.Victim {
			panic("core: scheme demoted the victim")
		}
		c.demote(pool[di].Line, d.DemoteTo)
	}
	if d.Forced {
		c.pstats[c.ownerOf(pool[d.Victim].Line)].ForcedEvict++
	}
	return pool[d.Victim].Line
}

// chooseFull is the fully-associative fast path: one candidate per
// non-empty partition (its most useless line).
//
//fs:allocfree
func (c *Cache) chooseFull(insertPart int) int {
	c.worstBuf = c.worstBuf[:0]
	for p := 0; p < c.parts; p++ {
		if c.sizes[p] == 0 {
			continue
		}
		l := c.worst.Worst(p)
		if l < 0 {
			panic("core: WorstTracker disagrees with size accounting")
		}
		f, raw := c.ranker.FutilityRaw(l, p)
		c.worstBuf = append(c.worstBuf, Candidate{Line: l, Part: p, Futility: f, Raw: raw})
	}
	if len(c.worstBuf) == 0 {
		panic("core: full array with no resident lines")
	}
	d := c.scheme.Decide(c.worstBuf, insertPart)
	if d.Victim < 0 || d.Victim >= len(c.worstBuf) {
		panic("core: scheme returned full-path victim out of range")
	}
	if c.decObs != nil {
		c.decObs(c.worstBuf, insertPart, d.Victim, d.Forced)
	}
	return c.worstBuf[d.Victim].Line
}

// demote moves a resident line to partition to (sizing only; the owner and
// reference-ranker population are unchanged). to becomes the cache's one
// demotion target; a second one panics.
//
// A Counter scheme observes the move as symmetric flow: an eviction from `from`
// AND an insertion into `to`. Algorithm 2's feedback controller balances
// each partition's per-interval insertion count n_i against its eviction
// count n_e; reporting only OnEviction(from) (the old behaviour) would let
// the receiving partition gain lines with no recorded inflow, so its
// n_i/n_e reading says "draining" while its actual size grows. Today only
// Vantage demotes and it is no Counter, making the fix behaviour-neutral for
// existing configurations, but the oracle transcribes the symmetric
// accounting, the difftest corpus locks it and TestCounterSeesDemotions
// pins it.
//
//fs:allocfree
func (c *Cache) demote(line, to int) {
	from := c.partOf(line)
	if from == to {
		return
	}
	if to != c.demoteTo {
		if c.demoteTo >= 0 || to < 0 || to >= c.parts {
			panicDemoteTarget(to, c.demoteTo)
		}
		c.demoteTo = to
	}
	owner := c.ownerOf(line)
	c.resize(from, -1)
	c.resize(to, 1)
	c.ranker.OnEvict(line, from)
	c.ranker.OnInsert(line, to, futility.Context{Seq: c.seq, NextUse: trace.NoNextUse})
	c.meta.Put(int32(line), c.demotedID(owner))
	c.pstats[owner].Demotions++
	if c.counter != nil {
		c.counter.OnEviction(from) // a demotion drains the source like an eviction...
		c.counter.OnInsert(to)     // ...and fills the destination like an insertion
	}
}

// creditOccupancy brings partition p's occupancy sum up to access number
// through, at its current size.
//
//fs:allocfree
func (c *Cache) creditOccupancy(p int, through uint64) {
	ps := &c.pstats[p]
	ps.occupancySum += uint64(c.sizes[p]) * (through - ps.occSampled)
	ps.occSampled = through
}

// resize changes partition p's size by d in the middle of an access. The
// occupancy sample of an access is the size it leaves behind, so the
// accesses before the current one are credited at the old size first.
//
//fs:allocfree
func (c *Cache) resize(p, d int) {
	c.creditOccupancy(p, c.accesses-1)
	c.sizes[p] += d
}

// panicPartRange keeps the bounds-check failure formatting out of Access:
// the fmt call would otherwise sit inline on the hottest function in the
// simulator and force its arguments to escape.
//
//go:noinline
func panicPartRange(part int) {
	panic("core: " + fmt.Sprintf("partition %d out of range", part))
}

// panicDemoteTarget formats demote's failure off the miss path.
//
//go:noinline
func panicDemoteTarget(to, target int) {
	panic("core: " + fmt.Sprintf("demotion into partition %d; the cache's one demotion target is %d", to, target))
}
