package core

import (
	"math"
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// coarseFS builds an FS cache of 1024 lines in 4 partitions over coarse
// timestamps with an exact-LRU reference, scheme wrapping its FSFeedback.
func coarseFS(scheme func(*FSFeedback) Scheme) (*Cache, *FSFeedback, *futility.CoarseTS) {
	const lines, parts = 1024, 4
	fs := NewFSFeedback(parts, FSFeedbackConfig{})
	coarse := futility.NewCoarseTS(lines, parts)
	return New(Config{
		Array:     cachearray.NewSetAssoc(lines, 16, cachearray.IndexH3, 11),
		Ranker:    coarse,
		Reference: futility.NewExactLRU(lines, parts),
		Scheme:    scheme(fs),
		Parts:     parts,
	}), fs, coarse
}

// lockstep drives a and b, caches of 1024 lines in 4 partitions, through one
// stream of 60 000 accesses under three target splits, and fails at the
// first access whose results differ. It returns the number of evictions.
func lockstep(t *testing.T, a, b *Cache) int {
	t.Helper()
	splits := [][]int{{256, 256, 256, 256}, {640, 128, 128, 128}, {64, 64, 448, 448}}
	rng := xrand.New(5)
	evictions := 0
	for i := 0; i < 60000; i++ {
		if i%10000 == 0 {
			a.SetTargets(splits[i/10000%len(splits)])
			b.SetTargets(splits[i/10000%len(splits)])
		}
		// Half re-references (hits keep timestamps spread), half new lines.
		part := rng.Intn(4)
		addr := uint64(part)<<32 | uint64(rng.Intn(600))
		if rng.Intn(2) == 0 {
			addr = uint64(part)<<32 | uint64(1<<20+i)
		}
		ra, rb := a.Access(addr, part, trace.NoNextUse), b.Access(addr, part, trace.NoNextUse)
		if ra != rb {
			t.Fatalf("access %d: %+v, twin %+v", i, ra, rb)
		}
		if ra.Evicted {
			evictions++
		}
	}
	if evictions == 0 {
		t.Fatal("the stream made no replacement decision")
	}
	return evictions
}

// sameOutcome fails unless a and b end in the same snapshot, scaling factors
// and invariants.
func sameOutcome(t *testing.T, a, b *Cache, fa, fb *FSFeedback) {
	t.Helper()
	if sa, sb := a.StatsSnapshot().String(), b.StatsSnapshot().String(); sa != sb {
		t.Fatalf("snapshots differ:\n%s\ntwin\n%s", sa, sb)
	}
	for p, alpha := range fa.Alphas() {
		if twin := fb.Alphas()[p]; math.Float64bits(alpha) != math.Float64bits(twin) {
			t.Fatalf("partition %d: alpha %v, twin %v", p, alpha, twin)
		}
	}
	for _, c := range []*Cache{a, b} {
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRawDecisionMatchesFullPath runs two FS + coarse + reference caches on
// one stream, one of them under FullPath so that it ranks every candidate
// through FutilityRaw. The other takes the raw-only path and must be
// indistinguishable from outside — every access result, the measurement
// snapshot, the scaling factors, the invariants — while never having touched
// its CDF tables.
func TestRawDecisionMatchesFullPath(t *testing.T) {
	quiet, qfs, qcoarse := coarseFS(func(fs *FSFeedback) Scheme { return fs })
	full, ffs, fcoarse := coarseFS(func(fs *FSFeedback) Scheme { return FullPath{fs} })
	if !quiet.rawOnly || full.rawOnly {
		t.Fatalf("rawOnly = %v bare, %v under FullPath; want true, false", quiet.rawOnly, full.rawOnly)
	}
	lockstep(t, quiet, full)
	sameOutcome(t, quiet, full, qfs, ffs)
	for p := range quiet.Parts() {
		if qcoarse.Calibrated(p) {
			t.Fatalf("partition %d: the raw-only path calibrated its CDF", p)
		}
		if !fcoarse.Calibrated(p) {
			t.Fatalf("partition %d: the full path never queried futility", p)
		}
	}
}

// TestHooksChangeNothing installs a no-op decision observer on an FS +
// coarse + reference cache from its first access: it must run exactly as its
// bare twin — every access result, the snapshot, the scaling factors — and,
// like it, never calibrate its coarse CDF, since an observer does not choose
// how a miss ranks its candidates.
func TestHooksChangeNothing(t *testing.T) {
	bare, bfs, bcoarse := coarseFS(func(fs *FSFeedback) Scheme { return fs })
	hooked, hfs, hcoarse := coarseFS(func(fs *FSFeedback) Scheme { return fs })
	observed := 0
	hooked.SetDecisionObserver(func([]Candidate, int, int, bool) { observed++ })
	evictions := lockstep(t, bare, hooked)
	if observed != evictions {
		t.Fatalf("observer saw %d of %d decisions", observed, evictions)
	}
	sameOutcome(t, bare, hooked, bfs, hfs)
	for p := range bare.Parts() {
		if bcoarse.Calibrated(p) || hcoarse.Calibrated(p) {
			t.Fatalf("partition %d: CDF calibrated bare %v, hooked %v; want neither",
				p, bcoarse.Calibrated(p), hcoarse.Calibrated(p))
		}
	}
}

// TestRawOnlyNeedsEveryCondition pins the combinations New sets each fast
// path for. Raw-only needs FSFeedback and CoarseTS: a coarse ranker never
// measures, so a Reference is optional. Pruned needs a FullSelector scheme
// and ExactLRU. FullPath, which hides both the concrete scheme and the
// FullSelector mark, takes neither.
func TestRawOnlyNeedsEveryCondition(t *testing.T) {
	const lines, parts = 64, 2
	coarse := func() futility.Ranker { return futility.NewCoarseTS(lines, parts) }
	lru := func() futility.Ranker { return futility.NewExactLRU(lines, parts) }
	lfu := func() futility.Ranker { return futility.NewExactLFU(lines, parts, 1) }
	fs := func() Scheme { return NewFSFeedback(parts, FSFeedbackConfig{}) }
	for _, tc := range []struct {
		name            string
		ranker, ref     func() futility.Ranker
		scheme          func() Scheme
		rawOnly, pruned bool
	}{
		{"fs+coarse+ref", coarse, lru, fs, true, false},
		{"fs+coarse", coarse, nil, fs, true, false},
		{"fsfixed+coarse+ref", coarse, lru, func() Scheme { return NewFSFixed(parts) }, false, false},
		{"fullpath(fs)+coarse+ref", coarse, lru, func() Scheme { return FullPath{fs()} }, false, false},
		{"fs+lru", lru, nil, fs, false, true},
		{"fsfixed+lru", lru, nil, func() Scheme { return NewFSFixed(parts) }, false, true},
		{"fs+lfu", lfu, nil, fs, false, false},
		{"fullpath(fs)+lru", lru, nil, func() Scheme { return FullPath{fs()} }, false, false},
	} {
		cfg := Config{
			Array:  cachearray.NewSetAssoc(lines, 4, cachearray.IndexH3, 1),
			Ranker: tc.ranker(),
			Scheme: tc.scheme(),
			Parts:  parts,
		}
		if tc.ref != nil {
			cfg.Reference = tc.ref()
		}
		c := New(cfg)
		if c.rawOnly != tc.rawOnly || c.pruned != tc.pruned {
			t.Errorf("%s: rawOnly, pruned = %v, %v; want %v, %v", tc.name, c.rawOnly, c.pruned, tc.rawOnly, tc.pruned)
		}
	}
}

// lyingArray installs a different address of the same set where Access will
// look for the one it asked for: flip is a nonzero address of set 0, so
// addr^flip shares addr's set (H3 is linear). The landing line is valid and
// only its address gives the lie away.
type lyingArray struct {
	*cachearray.SetAssoc
	flip uint64
}

func (a lyingArray) Install(addr uint64, victim int, moves []cachearray.Move) []cachearray.Move {
	return a.SetAssoc.Install(addr^a.flip, victim, moves)
}

// The landing-line rule replaced a second Lookup, so the array is no longer
// asked where the address went; Access must still notice when it went nowhere.
func TestAccessPanicsWhenInstallLies(t *testing.T) {
	arr := cachearray.NewSetAssoc(64, 4, cachearray.IndexH3, 1)
	flip := uint64(1)
	for arr.Candidates(flip, nil)[0] != 0 {
		flip++
	}
	c := New(Config{
		Array:  lyingArray{arr, flip},
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
