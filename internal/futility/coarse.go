package futility

import "fscache/internal/stats"

// CoarseTS is the paper's practical futility ranking (§V-A): a coarse-grain
// timestamp-based LRU. Each partition has an 8-bit current timestamp,
// incremented once every K accesses to the partition, with K = 1/16 of the
// partition's size. A line is tagged with its partition's current timestamp
// on insertion and on every hit. The raw futility of a line tagged x in
// partition i is the unsigned 8-bit distance (CurrentTS_i − x) mod 256 —
// exactly the subtraction the hardware performs.
//
// Raw distances are what the feedback FS controller shifts and compares.
// For schemes needing a normalized quantile (Vantage's aperture test), the
// ranker also maintains a per-partition histogram of recently observed
// distances and reports the empirical CDF position of a line's distance —
// a self-calibrating estimate a real controller could implement with a few
// counters.
//
// The CDF is calibrated only by futility queries: each FutilityRaw records
// the distance it returns, twice, and nothing else does.
// A pipeline that never asks (core's raw-only FS path reads Distance) never
// calibrates and never allocates the tables; one that starts asking mid-run
// gets a CDF calibrated from its first query, not from the start of the run.
//
// Which lines are resident is not the ranker's to know: its caller (core's
// per-line partition ids) owns that, calls OnHit, OnEvict, OnMove and the
// queries only for lines it holds and OnInsert only for lines it does not,
// and core.Cache.CheckInvariants recounts residency against Size. A tag left
// behind by an eviction or a move is dead and is overwritten by the next
// OnInsert or OnMove onto its line. The sizes K is taken from are not its
// own either: like §V's one size register a partition, they are the caller's
// count (BindSizes).
type CoarseTS struct {
	ts      []uint8  // per-line timestamp tag //fslint:wrap8
	current []uint8  // per-partition current timestamp //fslint:wrap8
	counter []uint64 // per-partition accesses since last tick
	sizes   []int    // the caller's per-partition resident-line counts (BindSizes), read-only

	cdf   []*cdfTable // per-partition tables, nil until the first futility query
	total []uint32    // per-partition histogram mass
	dirty []uint32    // per-partition recordings since the last rebuild
}

// cdfTable is one partition's distance histogram and the CDF last computed
// from it: 3 KiB that only a partition whose futility is queried ever needs.
type cdfTable struct {
	hist [256]uint32  // distance histogram
	cdf  [256]float64 // cumulative hist / total at the last rebuild
}

// histRebuild is how many histogram updates may accumulate before the
// cached CDF is rebuilt.
const histRebuild = 4096

// NewCoarseTS builds a coarse timestamp ranker for lines lines and parts
// partitions.
func NewCoarseTS(lines, parts int) *CoarseTS {
	if lines <= 0 || parts <= 0 {
		panic("futility: lines and parts must be positive")
	}
	return &CoarseTS{
		ts:      make([]uint8, lines),
		current: make([]uint8, parts),
		counter: make([]uint64, parts),
		sizes:   make([]int, parts),
		cdf:     make([]*cdfTable, parts),
		total:   make([]uint32, parts),
		dirty:   make([]uint32, parts),
	}
}

// tsDist returns the unsigned mod-256 distance (cur − tag), the exact
// 8-bit subtraction the hardware performs (§V-A). The timestamp clock
// wraps by design, so ordinary <, > or − on timestamp tags is wrong once
// the clock laps a stale line; every distance computation must go through
// this helper (enforced by the tswrap rule of fslint's style analyzer).
//
//fslint:wrapsafe
func tsDist(cur, tag uint8) uint8 { return cur - tag }

// BindSizes implements SizeBinder; sizes[part] must count a line before
// OnInsert registers it. Unbound, every partition reads as empty: K = 1.
func (c *CoarseTS) BindSizes(sizes []int) { c.sizes = sizes }

// tick advances the partition's access counter and, every K = size/16
// accesses (minimum 1), its current timestamp.
func (c *CoarseTS) tick(part int) {
	c.counter[part]++
	k := uint64(c.sizes[part] / 16)
	if k == 0 {
		k = 1
	}
	if c.counter[part] >= k {
		c.counter[part] = 0
		c.current[part]++
	}
}

// OnInsert implements Ranker: a fill tags its line as a hit does.
//
//fs:allocfree
func (c *CoarseTS) OnInsert(line, part int, ctx Context) { c.OnHit(line, part, ctx) }

// OnHit implements Ranker.
//
//fs:allocfree
func (c *CoarseTS) OnHit(line, part int, ctx Context) {
	c.tick(part)
	c.ts[line] = c.current[part]
}

// OnEvict implements Ranker: the tag is dead, and the size is the caller's.
//
//fs:allocfree
func (c *CoarseTS) OnEvict(line, part int) {}

// OnMove implements Ranker.
//
//fs:allocfree
func (c *CoarseTS) OnMove(from, to, part int) {
	c.ts[to] = c.ts[from]
}

// Distance returns FutilityRaw's raw value, the 8-bit timestamp distance,
// without recording it: the one subtraction §V's shift-and-compare needs.
//
//fs:allocfree
func (c *CoarseTS) Distance(line, part int) uint64 {
	stats.CountQuery()
	return uint64(tsDist(c.current[part], c.ts[line]))
}

// FutilityRaw implements Ranker: the empirical CDF position of the line's
// distance among recently observed distances in its partition, and the 8-bit
// timestamp distance itself. Each query records the distance in the
// partition's histogram twice, once before the CDF is read and once after:
// PF, Vantage and PriSM over coarse timestamps decide on the CDF that double
// count calibrates.
//
//fs:allocfree
func (c *CoarseTS) FutilityRaw(line, part int) (float64, uint64) {
	stats.CountQuery()
	d := tsDist(c.current[part], c.ts[line])
	c.observe(part, d)
	if c.dirty[part] >= histRebuild {
		c.rebuild(part)
	}
	f := c.cdf[part].cdf[d]
	c.observe(part, d)
	return f, uint64(d)
}

// Size implements Ranker with the bound size.
//
//fs:allocfree
func (c *CoarseTS) Size(part int) int { return c.sizes[part] }

// calibrate gives the partition its CDF tables, on its first futility query;
// out of line so the allocation is not inlined into //fs:allocfree callers.
//
//go:noinline
func (c *CoarseTS) calibrate(part int) *cdfTable {
	//fslint:ignore allocfree cold: once per partition, on its first futility query
	t := new(cdfTable)
	for d := range t.cdf {
		t.cdf[d] = float64(d+1) / 256 // prior: uniform distances
	}
	c.cdf[part] = t
	return t
}

func (c *CoarseTS) observe(part int, d uint8) {
	t := c.cdf[part]
	if t == nil {
		t = c.calibrate(part)
	}
	t.hist[d]++
	c.total[part]++
	c.dirty[part]++
	// Periodic halving keeps the histogram tracking the recent regime.
	if c.total[part] >= 1<<20 {
		var sum uint32
		for i := range t.hist {
			t.hist[i] /= 2
			sum += t.hist[i]
		}
		c.total[part] = sum
	}
}

// rebuild recomputes the partition's CDF from its histogram.
func (c *CoarseTS) rebuild(part int) {
	c.dirty[part] = 0
	t := c.cdf[part]
	total := float64(c.total[part])
	var cum uint64
	for d := range t.hist {
		cum += uint64(t.hist[d])
		t.cdf[d] = float64(cum) / total
	}
}

// Calibrated reports whether the partition's futility was ever queried.
func (c *CoarseTS) Calibrated(part int) bool { return c.cdf[part] != nil }

// Lines returns the number of line slots the ranker tracks.
func (c *CoarseTS) Lines() int { return len(c.ts) }

// FlipTimestampBit flips bit (0..7) of the line's timestamp tag. It exists
// for fault injection (experiment abl-fault): a flipped high bit makes a
// fresh line look up to 128 ticks stale or a stale line look fresh, exactly
// the soft-error class §V's feedback controller must absorb. The caller
// picks resident lines (core.Cache.Resident); a flip of a dead tag is
// overwritten when its line is next filled. XOR is wrap-safe: the tag stays
// a valid mod-256 timestamp and all distance computation still goes through
// tsDist.
func (c *CoarseTS) FlipTimestampBit(line int, bit uint) {
	if line < 0 || line >= c.Lines() {
		panic("futility: FlipTimestampBit line out of range")
	}
	if bit > 7 {
		panic("futility: FlipTimestampBit bit out of range")
	}
	c.ts[line] ^= 1 << bit
}
