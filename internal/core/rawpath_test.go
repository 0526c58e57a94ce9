package core

import (
	"math"
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// TestRawDecisionMatchesFullPath runs two FS + coarse + reference caches on
// one stream, one of them carrying a no-op observer from its first access so
// that it ranks every candidate through FutilityRaw. The quiet one takes the
// raw-only path and must be indistinguishable from outside — every access
// result, the measurement snapshot, the scaling factors, the invariants —
// while never having touched its CDF tables.
func TestRawDecisionMatchesFullPath(t *testing.T) {
	const lines, parts = 1024, 4
	type built struct {
		c      *Cache
		fs     *FSFeedback
		coarse *futility.CoarseTS
	}
	build := func() built {
		fs := NewFSFeedback(parts, FSFeedbackConfig{})
		coarse := futility.NewCoarseTS(lines, parts)
		return built{New(Config{
			Array:     cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, 11),
			Ranker:    coarse,
			Reference: futility.NewExactLRU(lines, parts),
			Scheme:    fs,
			Parts:     parts,
		}), fs, coarse}
	}
	quiet, observed := build(), build()
	if !quiet.c.rawOnly {
		t.Fatal("FS feedback over coarse timestamps with a reference is not raw-only")
	}
	seen := 0
	observed.c.SetDecisionObserver(func([]Candidate, int, int, bool) { seen++ })

	splits := [][]int{{256, 256, 256, 256}, {640, 128, 128, 128}, {64, 64, 448, 448}}
	rng := xrand.New(5)
	for i := 0; i < 60000; i++ {
		if i%10000 == 0 {
			quiet.c.SetTargets(splits[i/10000%len(splits)])
			observed.c.SetTargets(splits[i/10000%len(splits)])
		}
		// Half re-references (hits keep timestamps spread), half new lines.
		part := rng.Intn(parts)
		addr := uint64(part)<<32 | uint64(rng.Intn(600))
		if rng.Intn(2) == 0 {
			addr = uint64(part)<<32 | uint64(1<<20+i)
		}
		if q, o := quiet.c.Access(addr, part, trace.NoNextUse), observed.c.Access(addr, part, trace.NoNextUse); q != o {
			t.Fatalf("access %d: raw-only %+v, full path %+v", i, q, o)
		}
	}
	if seen == 0 {
		t.Fatal("observer never fired: the stream made no replacement decision")
	}
	if q, o := quiet.c.StatsSnapshot().String(), observed.c.StatsSnapshot().String(); q != o {
		t.Fatalf("snapshots differ:\nraw-only\n%s\nfull path\n%s", q, o)
	}
	for p := 0; p < parts; p++ {
		qa, oa := quiet.fs.Alphas()[p], observed.fs.Alphas()[p]
		if math.Float64bits(qa) != math.Float64bits(oa) {
			t.Fatalf("partition %d: alpha %v raw-only, %v full path", p, qa, oa)
		}
		if quiet.coarse.Calibrated(p) {
			t.Fatalf("partition %d: the raw-only path calibrated its CDF", p)
		}
		if !observed.coarse.Calibrated(p) {
			t.Fatalf("partition %d: the observed path never queried futility", p)
		}
	}
	for _, b := range []built{quiet, observed} {
		if err := b.c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRawOnlyNeedsEveryCondition pins the combinations that must keep
// the full path: any scheme but FSFeedback, any ranker but CoarseTS, and a
// coarse ranker doubling as its own reference (its Futility is then the AEF).
// An unmeasured cache has no AEF to feed, so it qualifies like one with a
// separate reference.
func TestRawOnlyNeedsEveryCondition(t *testing.T) {
	const lines, parts = 64, 2
	for _, tc := range []struct {
		name       string
		ranker     futility.Ranker
		ref        futility.Ranker
		unmeasured bool
		scheme     Scheme
		want       bool
	}{
		{"fs+coarse+ref", futility.NewCoarseTS(lines, parts), futility.NewExactLRU(lines, parts), false, NewFSFeedback(parts, FSFeedbackConfig{}), true},
		{"fs+coarse, unmeasured", futility.NewCoarseTS(lines, parts), nil, true, NewFSFeedback(parts, FSFeedbackConfig{}), true},
		{"fs+coarse, no ref", futility.NewCoarseTS(lines, parts), nil, false, NewFSFeedback(parts, FSFeedbackConfig{}), false},
		{"fs+exact", futility.NewExactLRU(lines, parts), nil, false, NewFSFeedback(parts, FSFeedbackConfig{}), false},
		{"fs+exact, unmeasured", futility.NewExactLRU(lines, parts), nil, true, NewFSFeedback(parts, FSFeedbackConfig{}), false},
		{"fsfixed+coarse+ref", futility.NewCoarseTS(lines, parts), futility.NewExactLRU(lines, parts), false, NewFSFixed(parts), false},
		{"fsfixed+coarse, unmeasured", futility.NewCoarseTS(lines, parts), nil, true, NewFSFixed(parts), false},
	} {
		c := New(Config{
			Array:      cachearray.NewSetAssoc(lines, 4, cachearray.IndexXOR, 1),
			Ranker:     tc.ranker,
			Reference:  tc.ref,
			Unmeasured: tc.unmeasured,
			Scheme:     tc.scheme,
			Parts:      parts,
		})
		if c.rawOnly != tc.want {
			t.Errorf("%s: rawOnly = %v, want %v", tc.name, c.rawOnly, tc.want)
		}
	}
}

// lyingArray installs a different address of the same set (over 16 sets the
// XOR fold cancels bits 0 and 4) where Access will look for the one it asked
// for, so the landing line is valid and only its address gives the lie away.
type lyingArray struct{ *cachearray.SetAssoc }

func (a lyingArray) Install(addr uint64, victim int, moves []cachearray.Move) []cachearray.Move {
	return a.SetAssoc.Install(addr^0x11, victim, moves)
}

// The landing-line rule replaced a second Lookup, so the array is no longer
// asked where the address went; Access must still notice when it went nowhere.
func TestAccessPanicsWhenInstallLies(t *testing.T) {
	c := New(Config{
		Array:  lyingArray{cachearray.NewSetAssoc(64, 4, cachearray.IndexXOR, 1)},
		Ranker: futility.NewExactLRU(64, 1),
		Scheme: NewFSFeedback(1, FSFeedbackConfig{}),
		Parts:  1,
	})
	c.SetTargets([]int{64})
	defer func() {
		if r := recover(); r != "core: address not resident after Install" {
			t.Fatalf("recovered %v, want the not-resident panic", r)
		}
	}()
	c.Access(2, 0, trace.NoNextUse)
}
