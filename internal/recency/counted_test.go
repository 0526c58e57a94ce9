//go:build fscount

package recency

import "testing"

// TestCounted pins what compactions cost, counted by the fscount build. An
// order filled to 4096 lines last grew when its 3904 slots filled, into
// 5888 (1.5·3904 + 32 rounded up to a word), and keeps them at 4096, within
// [1.25·live, 3·live]. Each compaction then renumbers 4096 slots and scans
// 128 bitmap words, and leaves 1792 hits before the next: ≈ 2.3 a hit, held
// to 2.4 over 16 passes of steady hits. (At 1.5·live slots it is ≈ 2; the
// band's floor of 1.25·live allows up to ≈ 4.2.) A settled 448 ↔ 576
// oscillation relays nothing out.
//
//	go test -tags fscount -run Counted ./internal/recency
func TestCounted(t *testing.T) {
	const lines, passes = 4096, 16
	p := &New(1, lines)[0]
	slot := newSlots(lines)
	seq := uint64(0)
	for l := int32(0); l < lines; l++ {
		seq++
		p.Insert(l, seq, slot)
	}
	// Warm-up: one pass compacts at the settled size.
	hit := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			p.Hit(int32(i%lines), seq, slot)
		}
	}
	hit(lines)
	if p.Cap() != 5888 {
		t.Fatalf("%d lines settled at capacity %d, want 5888", lines, p.Cap())
	}
	work, laid := compactWork.Load(), relayouts.Load()
	const n = passes * lines
	hit(n)
	if got := compactWork.Load() - work; 10*got > 24*n {
		t.Errorf("%d steady hits: compactions renumbered and scanned %d slots and words, %.2f a hit; want at most 2.4", n, got, float64(got)/n)
	}
	if got := relayouts.Load() - laid; got != 0 {
		t.Errorf("%d steady hits: %d relayouts", n, got)
	}

	o := newOscillation()
	o.cycle()
	laid = relayouts.Load()
	for i := 0; i < 8; i++ {
		o.cycle()
	}
	if got := relayouts.Load() - laid; got != 0 || o.atLo < 8 || o.atHi < 8 {
		t.Errorf("8 settled %d ↔ %d cycles: %d relayouts over %d and %d compactions", oscLo, oscHi, got, o.atLo, o.atHi)
	}
}
