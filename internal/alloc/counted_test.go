//go:build fscount

package alloc

import (
	"testing"

	"fscache/internal/stats"
	"fscache/internal/xrand"
)

// TestCounted pins the recency work the allocator's profile costs, counted by
// the fscount build, on two warm partitions of 2048 shadow tags each whose
// footprints are twice that: about half the sampled references reuse a
// tracked tag and half recycle the least recent one. An unsampled Observe
// counts nothing. A sampled one takes its partition index's next slot, and
// the index compacts when its top slot is used: the two settle at 2880 and
// 2944 slots, so each compaction renumbers 2048 slots and scans 45 or 46
// bitmap words every 832 or 896 touches, ≈ 2.45 a touch, held to 2.6. The
// index, full at every step, never relays out. An epoch-closing PollTargets reads and decays
// the histograms and touches no index. The allocator hashes with Mix64 and
// takes its own mutex, so no row counts an H3 evaluation, a stripe lock or a
// ranker query.
//
//	go test -tags fscount -run Counted ./internal/alloc
func TestCounted(t *testing.T) {
	const lines, parts = 1 << 14, 2
	a := New(Config{Parts: parts, Lines: lines, Seed: 3})
	rng := xrand.New(5)
	next := func() (int, uint64) {
		p := rng.Intn(parts)
		return p, uint64(p)<<40 | rng.Uint64()%(2*lines)
	}
	for range 8 * lines {
		a.Observe(next())
	}
	// Every partition's profiler shares this filter (one salt from Seed).
	sampled := NewProfiler(1, a.cfg.SampleShift, a.cfg.Seed).Sampled

	before := stats.ReadCounted()
	unsampled := 0
	for unsampled < 1000 {
		if p, addr := next(); !sampled(addr) {
			a.Observe(p, addr)
			unsampled++
		}
	}
	if got := stats.ReadCounted().Sub(before); got != (stats.Counted{}) {
		t.Errorf("%d unsampled Observes: counted %+v, want nothing", unsampled, got)
	}

	const n = 16 * 2048
	before = stats.ReadCounted()
	for touched := 0; touched < n; {
		if p, addr := next(); sampled(addr) {
			a.Observe(p, addr)
			touched++
		}
	}
	got := stats.ReadCounted().Sub(before)
	if 10*got.CompactWork > 26*n {
		t.Errorf("%d sampled Observes: compactions renumbered and scanned %d slots and words, %.2f a touch; want at most 2.6",
			n, got.CompactWork, float64(got.CompactWork)/n)
	}
	if got.CompactWork = 0; got != (stats.Counted{}) {
		t.Errorf("%d sampled Observes: counted %+v besides compaction, want nothing", n, got)
	}

	epoch := a.Epoch()
	before = stats.ReadCounted()
	a.PollTargets(uint64(a.cfg.EpochAccesses))
	if got := stats.ReadCounted().Sub(before); got != (stats.Counted{}) {
		t.Errorf("epoch-closing PollTargets: counted %+v, want nothing", got)
	}
	if a.Epoch() != epoch+1 {
		t.Fatalf("PollTargets at the epoch's end closed %d epochs, want 1", a.Epoch()-epoch)
	}
}
