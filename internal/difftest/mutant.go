package difftest

import "fscache/internal/futility"

// offByOne is a deliberately defective decorator for a futility ranker: it
// reports every line one rank too useless — futility shifted down by one
// rank width, raw bumped by one. It exists to prove the harness end to end:
// TestInjectedBugCaught wraps the production ranker with it and asserts the
// differential run catches the defect and shrinks it to a tiny reproducer.
// It is exactly the class of bug the optimized pipeline could realistically
// grow (a rank-origin mistake in the order-statistic tree).
type offByOne struct {
	futility.Ranker
}

// MutateOffByOne wraps a ranker with the injected off-by-one defect.
func MutateOffByOne(r futility.Ranker) futility.Ranker { return &offByOne{r} }

// FutilityRaw reports the underlying futility one rank-width too low and the
// raw measure off by one.
func (m *offByOne) FutilityRaw(line, part int) (float64, uint64) {
	f, raw := m.Ranker.FutilityRaw(line, part)
	return f - 1/float64(m.Ranker.Size(part)), raw + 1
}

// Worst delegates so fully-associative scenarios still run under the
// mutant; the wrapped production rankers used in those scenarios all track
// their worst line.
func (m *offByOne) Worst(part int) int {
	return m.Ranker.(futility.WorstTracker).Worst(part)
}

// BindSizes hands the cache's sizes on to a ranker that reads them.
func (m *offByOne) BindSizes(sizes []int) {
	if b, ok := m.Ranker.(futility.SizeBinder); ok {
		b.BindSizes(sizes)
	}
}
