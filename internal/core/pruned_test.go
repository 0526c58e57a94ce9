package core_test

import (
	"fmt"
	"testing"

	"fscache/internal/baselines"
	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// TestPrunedPoolMatchesFullPool runs every FullSelector scheme over exact LRU
// twice on one stream: once bare, so that a miss ranks only each partition's
// oldest candidate, and once under core.FullPath, which ranks the full list.
// The two must be indistinguishable from outside — every access result, the
// snapshot, the invariants — on set-associative, Z4/52 and skew arrays and
// at 2, 8 and 32 partitions. The 256-line cases leave 32 partitions 8 lines
// each, so a Z4/52 miss usually holds several partitions' least recent line
// (f = M/M = 1) and cross-partition ties, which only the list order breaks,
// decide a large share of the victims.
func TestPrunedPoolMatchesFullPool(t *testing.T) {
	schemes := []struct {
		name  string
		build func(parts int) core.Scheme
	}{
		{"fs-fixed", func(parts int) core.Scheme {
			fs := core.NewFSFixed(parts)
			alphas := make([]float64, parts)
			for p := range alphas {
				alphas[p] = []float64{1, 2, 1, 0.5}[p%4] // equal α across partitions keeps ties alive
			}
			fs.SetAlphas(alphas)
			return fs
		}},
		{"fs-feedback", func(parts int) core.Scheme { return core.NewFSFeedback(parts, core.FSFeedbackConfig{}) }},
		{"pf", func(parts int) core.Scheme { return baselines.NewPF(parts) }},
		{"unmanaged", func(parts int) core.Scheme { return baselines.NewUnmanaged() }},
	}
	arrays := []struct {
		name  string
		build func(lines int) cachearray.Array
	}{
		{"setassoc16", func(lines int) cachearray.Array { return cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, 11) }},
		{"z4/52", func(lines int) cachearray.Array { return cachearray.NewZCache(lines, 4, 3, 11) }},
		{"skew4", func(lines int) cachearray.Array { return cachearray.NewZCache(lines, 4, 1, 11) }},
	}
	for _, sc := range schemes {
		for _, ar := range arrays {
			for _, dims := range [][2]int{{1024, 2}, {1024, 8}, {1024, 32}, {256, 32}} {
				lines, parts := dims[0], dims[1]
				t.Run(fmt.Sprintf("%s/%s/%dx%d", sc.name, ar.name, parts, lines/parts), func(t *testing.T) {
					build := func(full bool) *core.Cache {
						scheme := sc.build(parts)
						if full {
							scheme = core.FullPath{Scheme: scheme}
						}
						return core.New(core.Config{
							Array:  ar.build(lines),
							Ranker: futility.NewExactLRU(lines, parts),
							Scheme: scheme,
							Parts:  parts,
						})
					}
					decisions, tied := prunedTwins(t, build(false), build(true), lines, parts)
					if lines/parts <= 8 && tied < decisions/32 {
						t.Fatalf("only %d of %d decisions held two partitions' least recent lines; the tie case is not exercised", tied, decisions)
					}
					t.Logf("%d decisions, %d with two partitions' least recent lines among the candidates", decisions, tied)
				})
			}
		}
	}
}

// prunedTwins drives quiet and full, caches of lines lines in parts
// partitions that differ only in how a miss ranks its candidates, through one
// stream of 12 caches' worth of accesses, retargeted four times, and fails
// unless every access result, the snapshots and the invariants agree. It
// returns the replacement decisions full made, and how many of them held two
// partitions' least recent lines (f = 1) among their candidates.
func prunedTwins(t *testing.T, quiet, full *core.Cache, lines, parts int) (decisions, tied int) {
	t.Helper()
	full.SetDecisionObserver(func(cands []core.Candidate, _, _ int, _ bool) {
		decisions++
		last := -1
		for _, c := range cands {
			if c.Futility <= 0 {
				t.Fatalf("full-path candidate %+v carries no futility", c)
			}
			if c.Futility >= 1 {
				if last >= 0 && last != c.Part {
					tied++
					return
				}
				last = c.Part
			}
		}
	})
	even, skewed := make([]int, parts), make([]int, parts)
	for p := range even {
		even[p] = lines / parts
		skewed[p] = lines / parts / 2
	}
	skewed[0] += lines / 2

	rng := xrand.New(5)
	steps := 12 * lines
	for i := 0; i < steps; i++ {
		if i%(steps/4) == 0 {
			tg := even
			if i/(steps/4)%2 == 1 {
				tg = skewed
			}
			quiet.SetTargets(tg)
			full.SetTargets(tg)
		}
		// Half re-references over a little more than a partition's share,
		// half new lines.
		part := rng.Intn(parts)
		addr := uint64(part)<<32 | uint64(rng.Intn(lines/parts*3/2))
		if rng.Intn(2) == 0 {
			addr = uint64(part)<<32 | uint64(1<<20+i)
		}
		if q, f := quiet.Access(addr, part, trace.NoNextUse), full.Access(addr, part, trace.NoNextUse); q != f {
			t.Fatalf("access %d: pruned %+v, full list %+v", i, q, f)
		}
	}
	if decisions == 0 {
		t.Fatal("observer never fired: the stream made no replacement decision")
	}
	if q, f := quiet.StatsSnapshot().String(), full.StatsSnapshot().String(); q != f {
		t.Fatalf("snapshots differ:\npruned\n%s\nfull list\n%s", q, f)
	}
	for _, c := range []*core.Cache{quiet, full} {
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	return decisions, tied
}
