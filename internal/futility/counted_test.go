//go:build fscount

package futility

import (
	"testing"

	"fscache/internal/stats"
)

// TestCounted pins the ranker queries each operation of the coarse, exact-LRU
// and tree (LFU, OPT) rankers makes, counted by the fscount build: a
// FutilityRaw, or a CoarseTS.Distance, is one query, and the per-access hooks
// query nothing. No ranker hashes or locks. Recency compaction work is
// recency's own row, so it is left out of the exact-LRU ranker's.
//
//	go test -tags fscount -run Counted ./internal/futility
func TestCounted(t *testing.T) {
	const lines, parts = 64, 2
	coarse := bound(NewCoarseTS(lines, parts))
	for _, rk := range []struct {
		name string
		r    Ranker
	}{
		{"Coarse", coarse},
		{"ExactLRU", NewExactLRU(lines, parts)},
		{"LFU", NewExactLFU(lines, parts, 1)},
		{"OPT", NewExactOPT(lines, parts, 1)},
	} {
		r, seq := rk.r, uint64(0)
		ctx := func() Context {
			seq++
			return Context{Seq: seq, NextUse: int64(seq + lines)}
		}
		for l := 0; l < lines-2; l++ {
			r.OnInsert(l, l%parts, ctx())
		}
		type row struct {
			op      string
			queries uint64
			f       func()
		}
		rows := []row{
			{"OnInsert", 0, func() { r.OnInsert(lines-2, 0, ctx()) }},
			{"OnHit", 0, func() { r.OnHit(3, 1, ctx()) }},
			{"OnMove", 0, func() { r.OnMove(lines-2, lines-1, 0) }},
			{"FutilityRaw", 1, func() { r.FutilityRaw(5, 1) }},
			{"OnEvict", 0, func() { r.OnEvict(lines-1, 0) }},
		}
		if r == Ranker(coarse) {
			rows = append(rows, row{"Distance", 1, func() { coarse.Distance(5, 1) }})
		}
		for _, row := range rows {
			before := stats.ReadCounted()
			row.f()
			got := stats.ReadCounted().Sub(before)
			got.CompactWork, got.Relayouts = 0, 0
			if want := (stats.Counted{Queries: row.queries}); got != want {
				t.Errorf("%s %s: counted %+v, want %+v", rk.name, row.op, got, want)
			}
		}
	}
}
