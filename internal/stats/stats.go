// Package stats provides the measurement toolkit used by every experiment:
// eviction-futility histograms (associativity distributions, §III-C),
// average eviction futility (AEF), size-deviation tracking (mean absolute
// deviation, §IV-D), and the usual scalar summaries.
package stats

import (
	"math"
	"sort"
)

// Histogram accumulates float64 samples in [0,1] into fixed-width buckets.
// It is the representation of the paper's "associativity distribution": the
// probability distribution of evicted lines' futility. A sample of exactly
// 1.0 lands in the last bucket.
//
// A nil *Histogram is empty to N, Mean, Sum, Counts and Clone, and merges as
// nothing, so a recorder that never samples (an unmeasured cache) need not
// allocate one.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
}

// NewHistogram returns a histogram with n buckets over [0,1]. n must be > 0.
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bucket")
	}
	return &Histogram{counts: make([]uint64, n)}
}

// Add records one sample. Samples outside [0,1] are clamped; the futility
// definition guarantees the range, so clamping only papers over float noise.
func (h *Histogram) Add(x float64) {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	i := int(x * float64(len(h.counts)))
	if i == len(h.counts) {
		i--
	}
	h.counts[i]++
	h.total++
	h.sum += x
}

// N returns the number of samples recorded.
func (h *Histogram) N() uint64 {
	if h == nil {
		return 0
	}
	return h.total
}

// Mean returns the exact sample mean (not bucket-quantized). For an
// eviction-futility histogram this is the AEF.
func (h *Histogram) Mean() float64 {
	if h.N() == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// CDF returns the cumulative distribution evaluated at each bucket's upper
// edge: CDF()[i] = P(x <= (i+1)/n).
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		out[i] = float64(cum) / float64(h.total)
	}
	return out
}

// Quantile returns the (approximate, bucket-resolved) q-quantile: the upper
// edge of the bucket where the cumulative count first reaches q·N. q is
// clamped to [0,1]. Quantile(0) is the upper edge of the lowest *occupied*
// bucket — empty leading buckets carry no mass and are skipped — and
// Quantile(1) the upper edge of the highest occupied one. An empty
// histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.total)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 && cum == 0 {
			// No mass seen yet: q=0 must resolve to the first occupied
			// bucket, not trivially satisfy cum >= 0 at bucket zero.
			continue
		}
		cum += c
		if float64(cum) >= target {
			return float64(i+1) / float64(len(h.counts))
		}
	}
	return 1
}

// Merge adds other's samples into h. The histograms must have equal widths.
//
// Histogram is not safe for concurrent use. The concurrent merge path is:
// each writer owns its histogram, readers Clone it under the writer's lock,
// and the clones are merged outside any lock (internal/shardcache does this
// for per-stripe eviction-futility histograms).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	if len(h.counts) != len(other.counts) {
		panic("stats: merging histograms of different widths")
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
}

// Clone returns an independent deep copy of h.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	return &Histogram{
		counts: append([]uint64(nil), h.counts...),
		total:  h.total,
		sum:    h.sum,
	}
}

// Counts returns a copy of the per-bucket counts.
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	return append([]uint64(nil), h.counts...)
}

// Sum returns the exact (not bucket-quantized) sum of recorded samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// IntDist accumulates integer samples (e.g. size deviation in lines) and
// reports moments and the CDF of values. Memory is proportional to the
// number of distinct values, which is small for mean-reverting walks.
type IntDist struct {
	counts map[int]uint64
	total  uint64
	sum    float64
	absSum float64
}

// NewIntDist returns an empty distribution.
func NewIntDist() *IntDist {
	return &IntDist{counts: make(map[int]uint64)}
}

// Add records one sample.
func (d *IntDist) Add(v int) {
	d.counts[v]++
	d.total++
	d.sum += float64(v)
	d.absSum += math.Abs(float64(v))
}

// N returns the number of samples.
func (d *IntDist) N() uint64 { return d.total }

// Mean returns the sample mean.
func (d *IntDist) Mean() float64 {
	if d.total == 0 {
		return 0
	}
	return d.sum / float64(d.total)
}

// MAD returns the mean absolute value of the samples. For deviation-from-
// target samples this is the paper's "mean absolute deviation" (Fig. 5).
func (d *IntDist) MAD() float64 {
	if d.total == 0 {
		return 0
	}
	return d.absSum / float64(d.total)
}

// AbsCDF returns sorted |value| points and the cumulative probability at
// each, i.e. P(|X| <= v) — the exact form plotted in Fig. 5.
func (d *IntDist) AbsCDF() (values []int, cum []float64) {
	abs := map[int]uint64{}
	for v, c := range d.counts {
		if v < 0 {
			v = -v
		}
		abs[v] += c
	}
	values = make([]int, 0, len(abs))
	for v := range abs {
		values = append(values, v)
	}
	sort.Ints(values)
	cum = make([]float64, len(values))
	var running uint64
	for i, v := range values {
		running += abs[v]
		cum[i] = float64(running) / float64(d.total)
	}
	return values, cum
}

// Quantile returns the q-quantile of |X|.
func (d *IntDist) Quantile(q float64) int {
	values, cum := d.AbsCDF()
	for i, c := range cum {
		if c >= q {
			return values[i]
		}
	}
	if len(values) == 0 {
		return 0
	}
	return values[len(values)-1]
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// OccupancyError returns the mean and the maximum of the relative occupancy
// error |size−target|/target over partitions with positive targets (others
// are dead tenants washing out), both 0 if there is none.
func OccupancyError(sizes, targets []int) (mean, worst float64) {
	n := 0
	for p, t := range targets {
		if t <= 0 {
			continue
		}
		e := math.Abs(float64(sizes[p]-t)) / float64(t)
		mean += e
		if e > worst {
			worst = e
		}
		n++
	}
	if n > 0 {
		mean /= float64(n)
	}
	return mean, worst
}
