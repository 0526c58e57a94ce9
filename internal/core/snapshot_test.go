package core

import (
	"testing"
)

func TestStatsSnapshotIsDeepCopy(t *testing.T) {
	c := newTestCache(t, NewFSFeedback(2, FSFeedbackConfig{}), 2, 64, 8)
	c.SetTargets([]int{32, 32})
	d := newStreamDriver(11, []float64{0.5, 0.5})
	for i := 0; i < 2000; i++ {
		d.step(c)
	}
	snap := c.StatsSnapshot()
	if snap.Accesses != c.Accesses() {
		t.Fatalf("snapshot accesses %d != cache %d", snap.Accesses, c.Accesses())
	}
	for p := 0; p < 2; p++ {
		st := c.Stats(p)
		ps := &snap.Parts[p]
		if ps.Hits != st.Hits || ps.Misses != st.Misses || ps.Evictions != st.Evictions ||
			ps.Demotions != st.Demotions || ps.ForcedEvict != st.ForcedEvict {
			t.Fatalf("part %d: snapshot counters %+v != live %+v", p, ps, st)
		}
		if ps.Size != c.Sizes()[p] || ps.Target != c.Targets()[p] {
			t.Fatalf("part %d: size/target mismatch", p)
		}
		if ps.AEF() != st.AEF() {
			t.Fatalf("part %d: AEF %v != %v", p, ps.AEF(), st.AEF())
		}
		if ps.MeanOccupancy != c.MeanOccupancy(p) {
			t.Fatalf("part %d: mean occupancy mismatch", p)
		}
	}
	// The snapshot must be fully detached: further accesses do not change it.
	before := snap.String()
	for i := 0; i < 500; i++ {
		d.step(c)
	}
	if snap.String() != before {
		t.Fatal("snapshot mutated by later cache activity")
	}
}

func TestSnapshotMerge(t *testing.T) {
	build := func(seed uint64) Snapshot {
		c := newTestCache(t, NewFSFixed(2), 2, 64, 8)
		c.SetTargets([]int{32, 32})
		d := newStreamDriver(seed, []float64{0.7, 0.3})
		for i := 0; i < 1500; i++ {
			d.step(c)
		}
		return c.StatsSnapshot()
	}
	a, b := build(3), build(4)
	wantAcc := a.Accesses + b.Accesses
	wantMiss := a.Parts[0].Misses + b.Parts[0].Misses
	wantN := a.Parts[1].EvictFutility.N() + b.Parts[1].EvictFutility.N()
	wantOcc := a.Parts[0].MeanOccupancy + b.Parts[0].MeanOccupancy
	a.Merge(b)
	if a.Accesses != wantAcc {
		t.Fatalf("merged accesses = %d, want %d", a.Accesses, wantAcc)
	}
	if a.Parts[0].Misses != wantMiss {
		t.Fatalf("merged misses = %d, want %d", a.Parts[0].Misses, wantMiss)
	}
	if a.Parts[1].EvictFutility.N() != wantN {
		t.Fatalf("merged histogram N = %d, want %d", a.Parts[1].EvictFutility.N(), wantN)
	}
	if a.Parts[0].MeanOccupancy != wantOcc || wantOcc == 0 {
		t.Fatalf("merged mean occupancy = %v, want the sum %v", a.Parts[0].MeanOccupancy, wantOcc)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched partition counts did not panic")
		}
	}()
	one := Snapshot{Parts: make([]PartSnapshot, 1)}
	a.Merge(one)
}
