// Package oracle is a deliberately naive, obviously-correct reimplementation
// of the partitioned cache's replacement semantics, used as the reference
// model for differential testing (internal/difftest, FuzzAccess).
//
// Where the production pipeline (internal/core + internal/futility) keeps
// order-statistic treaps, devirtualized rankers, incremental CDF snapshots
// and caller-owned reusable buffers, the oracle does everything the slow,
// transparent way:
//
//   - exact LRU/LFU futility is computed by an O(M) linear scan over every
//     resident line on every query — the rank r of a line among the M lines
//     of its partition, normalized to f = r/M exactly as §III-A defines;
//   - the coarse timestamp clock of §V-A is four integers per partition
//     (current 8-bit timestamp, tick counter, population, and nothing else),
//     advanced once every K = M/16 accesses, with raw futility the unsigned
//     mod-256 distance;
//   - victim selection evaluates every candidate from scratch: the scaled
//     futility α_i·f_i of Futility Scaling §IV (fixed factors) or the scaled
//     raw distance of the §V feedback design, largest wins, first index
//     breaks ties;
//   - the feedback controller is Algorithm 2 transcribed: insertion and
//     eviction counters per partition, scale up by Δα when oversized and
//     growing, down when undersized and shrinking, clamped to [1, AlphaMax];
//   - the Vantage baseline (§VII-B) is transcribed candidate by candidate:
//     apertures recomputed from live sizes, demotions into the unmanaged
//     pseudo-partition applied before the victim's eviction futility is
//     measured, owner and decision partitions tracked separately;
//   - no state is shared with the system under test and no buffer is reused
//     across accesses.
//
// The oracle intentionally produces bit-identical observable behaviour to
// core.Cache on the configurations it supports (hits, victim lines, evicted
// futilities, occupancies and scaling-factor trajectories), so any
// divergence found by the difftest is a real semantic bug in one of the two
// implementations, never tolerance noise.
//
// The cache array is the one component the oracle does not re-derive: it is
// handed its own cachearray instance (same organization, same seed as the
// system under test) because candidate placement is configuration, not
// replacement policy — the paper's model treats the array as the given
// source of candidate lists (§III-A), and the optimization work the oracle
// guards (PR 3) never touched placement.
package oracle

import (
	"fmt"

	"fscache/internal/cachearray"
)

// Ranking selects the futility model the oracle evaluates.
type Ranking int

// Supported rankings.
const (
	// LRU is exact least-recently-used futility by linear scan.
	LRU Ranking = iota
	// LFU is exact least-frequently-used futility by linear scan, ties
	// broken by insertion order exactly as the production ranker's stable
	// tickets do.
	LFU
	// CoarseLRU is the 8-bit coarse-timestamp futility of §V-A. Eviction
	// futility is still measured by an exact-LRU scan, mirroring the
	// production cache's separate reference ranker.
	CoarseLRU
)

// String implements fmt.Stringer.
func (r Ranking) String() string {
	switch r {
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case CoarseLRU:
		return "coarse-lru"
	default:
		return "ranking(?)"
	}
}

// SchemeKind selects the Futility Scaling variant.
type SchemeKind int

// Supported schemes.
const (
	// Fixed is §IV: constant scaling factors, victim = argmax α_i·f.
	Fixed SchemeKind = iota
	// Feedback is §V: victim = argmax α_i·raw, with α driven by the
	// feedback controller of Algorithm 2.
	Feedback
	// Vantage is the aperture-based baseline (§VII-B): oversized partitions
	// demote their most useless lines into an unmanaged pseudo-partition
	// (always index Parts-1 here), evictions normally come from that region,
	// and a candidate set with no unmanaged line forces a managed eviction.
	// It is the one scheme that exercises demotions, so it locks the
	// controller's demotion accounting (symmetric insert/evict flow, owner
	// vs decision partition, fresh ranking state on demote).
	Vantage
)

// String implements fmt.Stringer.
func (s SchemeKind) String() string {
	switch s {
	case Fixed:
		return "fs-fixed"
	case Vantage:
		return "vantage"
	default:
		return "fs"
	}
}

// Config assembles an oracle cache.
type Config struct {
	// Array is the oracle's own cache-array instance. It must be built with
	// the same organization and seed as the system under test's array and
	// must not be shared with it.
	Array cachearray.Array
	// Parts is the number of partitions.
	Parts int
	// Ranking is the futility model.
	Ranking Ranking
	// Scheme is the Futility Scaling variant.
	Scheme SchemeKind
	// Alphas are the fixed scaling factors (Fixed only; nil means all 1).
	Alphas []float64
	// Interval is the feedback interval length l (Feedback only; default 16).
	Interval int
	// Delta is the feedback changing ratio Δα (Feedback only; default 2).
	Delta float64
	// AlphaMax caps feedback scaling factors (Feedback only; default 128).
	AlphaMax float64
}

// Result reports what one access did, mirroring core.AccessResult.
type Result struct {
	Hit             bool
	Evicted         bool
	EvictedLine     int
	EvictedPart     int
	EvictedFutility float64
}

// Cache is the naive reference model.
type Cache struct {
	arr    cachearray.Array
	freer  cachearray.Freer
	full   bool
	parts  int
	kind   Ranking
	scheme SchemeKind

	// Per-line state; part < 0 marks an untracked line. part is the decision
	// partition a line counts against for sizing; owner is the partition
	// whose access inserted it. They differ only after a Vantage demotion,
	// mirroring core.Cache's linePart/lineOwner split.
	part    []int
	owner   []int
	lastSeq []uint64
	freq    []uint64
	ticket  []uint64
	tag     []uint8 // coarse timestamp tag //fslint:wrap8

	nextTicket uint64
	seq        uint64

	// Coarse clock per partition (§V-A).
	current  []uint8 // per-partition current timestamp //fslint:wrap8
	counter  []uint64
	rankSize []int // coarse ranker population (tracked separately so tick granularity matches the production ranker exactly)

	// Scheme state.
	alphas   []float64
	ins, evs []int
	interval int
	delta    float64
	alphaMax float64

	// Vantage state: the unmanaged pseudo-partition index (-1 for other
	// schemes).
	unmanaged int

	sizes   []int
	targets []int

	hits, misses, evictions, demotions, forced []uint64
}

// New builds an oracle cache. It panics on inconsistent configuration, like
// core.New does for the system under test.
func New(cfg Config) *Cache {
	if cfg.Array == nil {
		panic("oracle: Array is required")
	}
	if cfg.Parts <= 0 {
		panic("oracle: Parts must be positive")
	}
	if cfg.Ranking == CoarseLRU && cfg.Scheme == Fixed {
		panic("oracle: coarse ranking is only modelled under the feedback scheme")
	}
	if cfg.Scheme == Vantage {
		if cfg.Parts < 2 {
			panic("oracle: Vantage needs an application partition and the unmanaged one")
		}
		if cfg.Ranking == CoarseLRU {
			panic("oracle: Vantage decides on exact normalized futility")
		}
	}
	n := cfg.Array.Lines()
	o := &Cache{
		arr:       cfg.Array,
		parts:     cfg.Parts,
		kind:      cfg.Ranking,
		scheme:    cfg.Scheme,
		part:      make([]int, n),
		owner:     make([]int, n),
		lastSeq:   make([]uint64, n),
		freq:      make([]uint64, n),
		ticket:    make([]uint64, n),
		tag:       make([]uint8, n),
		current:   make([]uint8, cfg.Parts),
		counter:   make([]uint64, cfg.Parts),
		rankSize:  make([]int, cfg.Parts),
		alphas:    make([]float64, cfg.Parts),
		ins:       make([]int, cfg.Parts),
		evs:       make([]int, cfg.Parts),
		interval:  cfg.Interval,
		delta:     cfg.Delta,
		alphaMax:  cfg.AlphaMax,
		sizes:     make([]int, cfg.Parts),
		targets:   make([]int, cfg.Parts),
		hits:      make([]uint64, cfg.Parts),
		misses:    make([]uint64, cfg.Parts),
		evictions: make([]uint64, cfg.Parts),
		demotions: make([]uint64, cfg.Parts),
		forced:    make([]uint64, cfg.Parts),
		unmanaged: -1,
	}
	for i := range o.part {
		o.part[i] = -1
		o.owner[i] = -1
	}
	for i := range o.alphas {
		o.alphas[i] = 1
	}
	if cfg.Scheme == Fixed && cfg.Alphas != nil {
		if len(cfg.Alphas) != cfg.Parts {
			panic("oracle: Alphas length mismatch")
		}
		for _, a := range cfg.Alphas {
			if a <= 0 {
				panic("oracle: scaling factors must be positive")
			}
		}
		copy(o.alphas, cfg.Alphas)
	}
	if cfg.Scheme == Feedback {
		if o.interval == 0 {
			o.interval = 16
		}
		if o.delta == 0 { //fslint:ignore style zero is the "unset" sentinel, never a computed value
			o.delta = 2
		}
		if o.alphaMax == 0 { //fslint:ignore style zero is the "unset" sentinel, never a computed value
			o.alphaMax = 128
		}
		if o.interval < 1 || o.delta <= 1 || o.alphaMax < 1 {
			panic("oracle: invalid feedback configuration")
		}
	}
	if cfg.Scheme == Vantage {
		o.unmanaged = cfg.Parts - 1
	}
	o.freer, _ = cfg.Array.(cachearray.Freer)
	_, o.full = cfg.Array.(*cachearray.FullyAssoc)
	if o.full && cfg.Ranking == CoarseLRU {
		panic("oracle: fully-associative arrays need an exact ranking")
	}
	if o.full && cfg.Scheme == Vantage {
		panic("oracle: Vantage is not modelled on fully-associative arrays")
	}
	return o
}

// SetTargets installs per-partition target sizes.
func (o *Cache) SetTargets(targets []int) {
	if len(targets) != o.parts {
		panic("oracle: SetTargets length mismatch")
	}
	copy(o.targets, targets)
}

// ForceAlpha overrides a feedback partition's scaling factor, clamped to
// [1, AlphaMax], and restarts its interval — the mirror of
// core.FSFeedback.ForceAlpha.
func (o *Cache) ForceAlpha(part int, alpha float64) {
	if o.scheme != Feedback {
		panic("oracle: ForceAlpha on a fixed-scaling scheme")
	}
	if part < 0 || part >= o.parts {
		panic("oracle: ForceAlpha partition out of range")
	}
	if alpha < 1 {
		alpha = 1
	}
	if alpha > o.alphaMax {
		alpha = o.alphaMax
	}
	o.alphas[part] = alpha
	o.ins[part] = 0
	o.evs[part] = 0
}

// Sizes returns the live partition sizes (read-only view).
func (o *Cache) Sizes() []int { return o.sizes }

// Alphas returns the live scaling factors (read-only view).
func (o *Cache) Alphas() []float64 { return o.alphas }

// Parts returns the partition count.
func (o *Cache) Parts() int { return o.parts }

// Hits returns the partition's hit count.
func (o *Cache) Hits(part int) uint64 { return o.hits[part] }

// Misses returns the partition's miss count.
func (o *Cache) Misses(part int) uint64 { return o.misses[part] }

// Evictions returns the partition's eviction count.
func (o *Cache) Evictions(part int) uint64 { return o.evictions[part] }

// Demotions returns the partition's demotion count, keyed by the demoted
// line's owner partition (mirroring core.PartStats.Demotions).
func (o *Cache) Demotions(part int) uint64 { return o.demotions[part] }

// ForcedEvictions returns the partition's forced-eviction count (Vantage's
// isolation breaches), keyed by the victim's owner partition.
func (o *Cache) ForcedEvictions(part int) uint64 { return o.forced[part] }

// Access performs one cache access for partition part.
func (o *Cache) Access(addr uint64, part int) Result {
	if part < 0 || part >= o.parts {
		panic("oracle: partition out of range")
	}
	o.seq++
	if line := o.arr.Lookup(addr); line >= 0 {
		// Hits count against the owner; futility state updates in the
		// decision partition (they differ only after a demotion).
		o.hits[o.owner[line]]++
		o.touch(line, o.part[line])
		return Result{Hit: true}
	}
	o.misses[part]++
	res := Result{}

	victim := -1
	if o.freer != nil {
		victim = o.freer.FreeLine(addr)
	}
	if victim < 0 {
		cands := o.arr.Candidates(addr, nil)
		for _, l := range cands {
			if _, valid := o.arr.AddrOf(l); !valid {
				victim = l
				break
			}
		}
		if victim < 0 {
			victim = o.choose(cands, part)
		}
	}

	if _, valid := o.arr.AddrOf(victim); valid {
		vp := o.part[victim]
		ow := o.owner[victim]
		// Eviction futility is measured in the decision partition after any
		// demotions this access applied (the controller's reference ranker
		// doubles as decision ranker on the configurations the oracle
		// models); the eviction is charged to the owner.
		ef := o.referenceFutility(victim, vp)
		o.evictions[ow]++
		if o.kind == CoarseLRU {
			o.rankSize[vp]--
		}
		o.sizes[vp]--
		o.onEviction(vp)
		res.Evicted = true
		res.EvictedLine = victim
		res.EvictedPart = ow
		res.EvictedFutility = ef
		o.part[victim] = -1
		o.owner[victim] = -1
	}

	for _, m := range o.arr.Install(addr, victim, nil) {
		o.part[m.To] = o.part[m.From]
		o.owner[m.To] = o.owner[m.From]
		o.lastSeq[m.To] = o.lastSeq[m.From]
		o.freq[m.To] = o.freq[m.From]
		o.ticket[m.To] = o.ticket[m.From]
		o.tag[m.To] = o.tag[m.From]
		o.part[m.From] = -1
		o.owner[m.From] = -1
	}

	line := o.arr.Lookup(addr)
	if line < 0 {
		panic("oracle: address not resident after Install")
	}
	o.part[line] = part
	o.owner[line] = part
	o.insertLine(line, part)
	o.sizes[part]++
	o.onInsert(part)
	return res
}

// tsDist is the unsigned mod-256 timestamp distance (§V-A), reimplemented
// here so the oracle shares no code path with futility.CoarseTS.
//
//fslint:wrapsafe
func tsDist(cur, tag uint8) uint8 { return cur - tag }

// tick advances a partition's coarse clock: once every K = M/16 accesses
// (minimum 1), the 8-bit current timestamp increments.
func (o *Cache) tick(part int) {
	o.counter[part]++
	k := uint64(o.rankSize[part] / 16)
	if k == 0 {
		k = 1
	}
	if o.counter[part] >= k {
		o.counter[part] = 0
		o.current[part]++
	}
}

// touch applies a hit to the line's futility state.
func (o *Cache) touch(line, part int) {
	o.lastSeq[line] = o.seq
	switch o.kind {
	case LFU:
		o.freq[line]++
	case CoarseLRU:
		o.tick(part)
		o.tag[line] = o.current[part]
	}
}

// insertLine registers a freshly installed line's futility state.
func (o *Cache) insertLine(line, part int) {
	o.nextTicket++
	o.ticket[line] = o.nextTicket
	o.lastSeq[line] = o.seq
	switch o.kind {
	case LFU:
		o.freq[line] = 1
	case CoarseLRU:
		o.rankSize[part]++
		o.tick(part)
		o.tag[line] = o.current[part]
	}
}

// choose evaluates every candidate from scratch and returns the victim line
// with the largest scaled futility (first index wins ties), exactly the
// selection rule of FSFixed.Decide / FSFeedback.Decide. Vantage dispatches
// to its own aperture-based selection, which also applies demotions.
func (o *Cache) choose(cands []int, insertPart int) int {
	if o.scheme == Vantage {
		return o.chooseVantage(cands)
	}
	if o.full {
		return o.chooseFull()
	}
	best, bestV := 0, -1.0
	for i, l := range cands {
		if v := o.decisionValue(l, o.part[l]); v > bestV {
			bestV = v
			best = i
		}
	}
	return cands[best]
}

// Vantage's aperture parameters, the paper's §VII-B configuration:
// A_max = 0.5, reached at (1+slack)× target with slack = 0.1.
const (
	vantageMaxAperture = 0.5
	vantageSlack       = 0.1
)

// aperture is Vantage's A_p for a managed partition: zero at or below
// target, growing linearly to A_max at (1+slack)× target; partitions with
// no allocation are fully open. Transcribed from baselines.Vantage.aperture
// with the identical float expressions.
func (o *Cache) aperture(part int) float64 {
	t := o.targets[part]
	if t <= 0 {
		return vantageMaxAperture
	}
	over := float64(o.sizes[part]-t) / (vantageSlack * float64(t))
	if over <= 0 {
		return 0
	}
	if over >= 1 {
		return vantageMaxAperture
	}
	return vantageMaxAperture * over
}

// chooseVantage transcribes baselines.Vantage.Decide the slow way: all
// candidate futilities are evaluated up front (the controller snapshots
// them into its candidate buffer before any demotion moves a line), then
// the decision applies — evict the most useless unmanaged candidate and
// demote everything within aperture; with no unmanaged candidate evict the
// most useless demotable line and demote the rest; with neither, a forced
// managed eviction. Demotions happen here, before the caller measures the
// victim's eviction futility, exactly as the controller's choose() does.
func (o *Cache) chooseVantage(cands []int) int {
	futs := make([]float64, len(cands))
	for i, l := range cands {
		futs[i] = o.futility(l, o.part[l])
	}
	var demote []int
	bestUn, bestUnF := -1, -1.0
	bestDem, bestDemF := -1, -1.0
	for i, l := range cands {
		p := o.part[l]
		if p == o.unmanaged {
			if futs[i] > bestUnF {
				bestUnF = futs[i]
				bestUn = i
			}
			continue
		}
		if a := o.aperture(p); a > 0 && futs[i] >= 1-a {
			demote = append(demote, i)
			if futs[i] > bestDemF {
				bestDemF = futs[i]
				bestDem = i
			}
		}
	}
	victim := -1
	forced := false
	switch {
	case bestUn >= 0:
		victim = bestUn
	case bestDem >= 0:
		victim = bestDem
		keep := demote[:0]
		for _, di := range demote {
			if di != bestDem {
				keep = append(keep, di)
			}
		}
		demote = keep
	default:
		best, bestF := 0, -1.0
		for i := range futs {
			if futs[i] > bestF {
				bestF = futs[i]
				best = i
			}
		}
		victim = best
		forced = true
		demote = nil
	}
	for _, di := range demote {
		o.demote(cands[di], o.unmanaged)
	}
	if forced {
		o.forced[o.owner[cands[victim]]]++
	}
	return cands[victim]
}

// demote mirrors core.(*Cache).demote: the line moves to the unmanaged
// partition for sizing and decisions but keeps its owner for statistics,
// and it re-enters the ranking as a fresh insertion at the current sequence
// number — new ticket, lastSeq = seq, and (for LFU) frequency reset to 1,
// exactly what the production ranker's OnEvict+OnInsert pair does. The
// scheme observes symmetric flow (an eviction from the source and an
// insertion into the destination); for Vantage both observers are no-ops,
// but the calls keep the transcription aligned with the controller.
func (o *Cache) demote(line, to int) {
	from := o.part[line]
	if from == to {
		return
	}
	o.nextTicket++
	o.ticket[line] = o.nextTicket
	o.lastSeq[line] = o.seq
	if o.kind == LFU {
		o.freq[line] = 1
	}
	o.sizes[from]--
	o.sizes[to]++
	o.part[line] = to
	o.demotions[o.owner[line]]++
	o.onEviction(from)
	o.onInsert(to)
}

// chooseFull mirrors the controller's fully-associative fast path: one
// candidate per non-empty partition — its most useless line — then the same
// scaled argmax.
func (o *Cache) chooseFull() int {
	bestLine, bestV := -1, -1.0
	for p := 0; p < o.parts; p++ {
		if o.sizes[p] == 0 {
			continue
		}
		l := o.worstLine(p)
		if v := o.decisionValue(l, p); v > bestV {
			bestV = v
			bestLine = l
		}
	}
	if bestLine < 0 {
		panic("oracle: full array with no resident lines")
	}
	return bestLine
}

// decisionValue is the scheme's scaled ranking of one candidate: α_p·f for
// fixed scaling (Eq. (1) regime, §IV), α_p·raw for the feedback design (§V).
func (o *Cache) decisionValue(line, part int) float64 {
	if o.scheme == Fixed {
		return o.futility(line, part) * o.alphas[part]
	}
	return float64(o.raw(line, part)) * o.alphas[part]
}

// futility is the exact normalized futility f = r/M by linear scan: r is
// the line's 1-based uselessness rank within its partition, M the
// partition's resident population.
func (o *Cache) futility(line, part int) float64 {
	switch o.kind {
	case LRU:
		return o.lruScan(line, part)
	case LFU:
		return o.lfuScan(line, part)
	default:
		panic("oracle: coarse ranking has no exact futility")
	}
}

// raw is the scheme's raw futility measure: the coarse timestamp distance,
// or for exact rankings the futility scaled to 32 bits exactly as the
// production rankers publish it.
func (o *Cache) raw(line, part int) uint64 {
	if o.kind == CoarseLRU {
		return uint64(tsDist(o.current[part], o.tag[line]))
	}
	return uint64(o.futility(line, part) * (1 << 32))
}

// referenceFutility is the eviction futility the statistics pipeline
// records: always an exact linear-scan rank. Coarse decisions measure
// against exact LRU (the production cache's separate reference ranker);
// exact decisions measure against themselves.
func (o *Cache) referenceFutility(line, part int) float64 {
	if o.kind == LFU {
		return o.lfuScan(line, part)
	}
	return o.lruScan(line, part)
}

// lruScan computes exact LRU futility: among the partition's M resident
// lines, the r-th most recently used has futility r/M with r counted from
// the most recent — equivalently, r is the number of lines at least as
// recent as the queried one. Equal sequence numbers (possible only when
// several lines were demoted by one access) break by ascending insertion
// ticket, the same stable tiebreak the production ranker's tree keys
// encode.
func (o *Cache) lruScan(line, part int) float64 {
	rank, m := 0, 0
	for l, p := range o.part {
		if p != part {
			continue
		}
		m++
		if o.lastSeq[l] > o.lastSeq[line] ||
			(o.lastSeq[l] == o.lastSeq[line] && o.ticket[l] <= o.ticket[line]) {
			rank++
		}
	}
	return float64(rank) / float64(m)
}

// lfuScan computes exact LFU futility: lines rank by descending frequency,
// equal frequencies by ascending insertion ticket (the same stable tiebreak
// the production ranker's order-statistic keys encode).
func (o *Cache) lfuScan(line, part int) float64 {
	rank, m := 0, 0
	for l, p := range o.part {
		if p != part {
			continue
		}
		m++
		if o.freq[l] > o.freq[line] ||
			(o.freq[l] == o.freq[line] && o.ticket[l] <= o.ticket[line]) {
			rank++
		}
	}
	return float64(rank) / float64(m)
}

// worstLine is the partition's most useless line by linear scan: the LRU
// line (oldest access) or the LFU line (lowest frequency, latest ticket).
func (o *Cache) worstLine(part int) int {
	worst := -1
	for l, p := range o.part {
		if p != part {
			continue
		}
		if worst < 0 {
			worst = l
			continue
		}
		switch o.kind {
		case LRU:
			if o.lastSeq[l] < o.lastSeq[worst] {
				worst = l
			}
		case LFU:
			if o.freq[l] < o.freq[worst] ||
				(o.freq[l] == o.freq[worst] && o.ticket[l] > o.ticket[worst]) {
				worst = l
			}
		}
	}
	if worst < 0 {
		panic("oracle: worstLine on empty partition")
	}
	return worst
}

// onInsert is the feedback controller's insertion counter (Algorithm 2).
func (o *Cache) onInsert(part int) {
	if o.scheme != Feedback {
		return
	}
	o.ins[part]++
	if o.ins[part] >= o.interval {
		o.adjust(part)
	}
}

// onEviction is the feedback controller's eviction counter (Algorithm 2).
func (o *Cache) onEviction(part int) {
	if o.scheme != Feedback {
		return
	}
	o.evs[part]++
	if o.evs[part] >= o.interval {
		o.adjust(part)
	}
}

// adjust is Algorithm 2 as written: scale up when oversized and still
// growing, down when undersized and still shrinking, clamp to [1, AlphaMax],
// reset both counters.
func (o *Cache) adjust(part int) {
	ni, ne := o.ins[part], o.evs[part]
	switch {
	case ni >= ne && o.sizes[part] > o.targets[part]:
		o.alphas[part] *= o.delta
		if o.alphas[part] > o.alphaMax {
			o.alphas[part] = o.alphaMax
		}
	case ni <= ne && o.sizes[part] < o.targets[part]:
		o.alphas[part] /= o.delta
		if o.alphas[part] < 1 {
			o.alphas[part] = 1
		}
	}
	o.ins[part] = 0
	o.evs[part] = 0
}

// CheckInvariants audits the oracle's own accounting against the array:
// non-negative sizes summing to the resident-line count, per-partition
// recounts matching, coarse populations matching, and untracked lines
// invalid in the array.
func (o *Cache) CheckInvariants() error {
	sum := 0
	for p := 0; p < o.parts; p++ {
		if o.sizes[p] < 0 {
			return fmt.Errorf("oracle: partition %d has negative size %d", p, o.sizes[p])
		}
		sum += o.sizes[p]
	}
	valid := 0
	counts := make([]int, o.parts)
	for l := 0; l < o.arr.Lines(); l++ {
		_, resident := o.arr.AddrOf(l)
		if !resident {
			if o.part[l] != -1 {
				return fmt.Errorf("oracle: invalid line %d assigned to partition %d", l, o.part[l])
			}
			if o.owner[l] != -1 {
				return fmt.Errorf("oracle: invalid line %d owned by partition %d", l, o.owner[l])
			}
			continue
		}
		valid++
		if o.part[l] < 0 || o.part[l] >= o.parts {
			return fmt.Errorf("oracle: resident line %d has out-of-range partition %d", l, o.part[l])
		}
		if o.owner[l] < 0 || o.owner[l] >= o.parts {
			return fmt.Errorf("oracle: resident line %d has out-of-range owner %d", l, o.owner[l])
		}
		if o.scheme != Vantage && o.owner[l] != o.part[l] {
			return fmt.Errorf("oracle: line %d owner %d != partition %d without demotions", l, o.owner[l], o.part[l])
		}
		counts[o.part[l]]++
	}
	if sum != valid {
		return fmt.Errorf("oracle: partition sizes sum to %d, resident lines %d", sum, valid)
	}
	for p := 0; p < o.parts; p++ {
		if counts[p] != o.sizes[p] {
			return fmt.Errorf("oracle: partition %d recount %d != tracked size %d", p, counts[p], o.sizes[p])
		}
		if o.kind == CoarseLRU && o.rankSize[p] != o.sizes[p] {
			return fmt.Errorf("oracle: partition %d coarse population %d != size %d", p, o.rankSize[p], o.sizes[p])
		}
	}
	return nil
}
