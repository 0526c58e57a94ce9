package ost

import (
	"sort"
	"testing"
	"testing/quick"

	"fscache/internal/xrand"
)

func key(p uint64) Key { return Key{Primary: p} }

func TestEmptyTree(t *testing.T) {
	tr := New(1)
	if tr.Len() != 0 {
		t.Fatalf("empty tree Len = %d, want 0", tr.Len())
	}
	if tr.Contains(key(7)) {
		t.Fatal("empty tree Contains = true")
	}
	if _, ok := tr.Rank(key(7)); ok {
		t.Fatal("empty tree Rank ok = true")
	}
	if tr.Delete(key(7)) {
		t.Fatal("empty tree Delete = true")
	}
}

func TestInsertDeleteRank(t *testing.T) {
	tr := New(2)
	keys := []uint64{5, 1, 9, 3, 7}
	for i, k := range keys {
		tr.Insert(key(k), int64(i))
	}
	if got := tr.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	wantRank := map[uint64]int{1: 1, 3: 2, 5: 3, 7: 4, 9: 5}
	for k, want := range wantRank {
		r, ok := tr.Rank(key(k))
		if !ok || r != want {
			t.Errorf("Rank(%d) = %d,%v, want %d,true", k, r, ok, want)
		}
	}
	// Rank of an absent key is its would-be insertion rank.
	if r, ok := tr.Rank(key(4)); ok || r != 3 {
		t.Errorf("Rank(4) = %d,%v, want 3,false", r, ok)
	}
	if r, ok := tr.Rank(key(100)); ok || r != 6 {
		t.Errorf("Rank(100) = %d,%v, want 6,false", r, ok)
	}
	if !tr.Delete(key(5)) {
		t.Fatal("Delete(5) = false")
	}
	if tr.Contains(key(5)) {
		t.Fatal("Contains(5) after delete = true")
	}
	if r, _ := tr.Rank(key(7)); r != 3 {
		t.Errorf("Rank(7) after delete = %d, want 3", r)
	}
}

func TestSelectMinMax(t *testing.T) {
	tr := New(3)
	for _, k := range []uint64{20, 10, 30} {
		tr.Insert(key(k), int64(k*2))
	}
	if k, v := tr.Min(); k.Primary != 10 || v != 20 {
		t.Errorf("Min = %v,%d want 10,20", k, v)
	}
	if k, v := tr.Max(); k.Primary != 30 || v != 60 {
		t.Errorf("Max = %v,%d want 30,60", k, v)
	}
	for r, want := range map[int]uint64{1: 10, 2: 20, 3: 30} {
		if k, _ := tr.Select(r); k.Primary != want {
			t.Errorf("Select(%d) = %d, want %d", r, k.Primary, want)
		}
	}
}

func TestSelectOutOfRangePanics(t *testing.T) {
	tr := New(4)
	tr.Insert(key(1), 0)
	for _, r := range []int{0, 2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Select(%d) did not panic", r)
				}
			}()
			tr.Select(r)
		}()
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	tr := New(5)
	tr.Insert(key(1), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Insert did not panic")
		}
	}()
	tr.Insert(key(1), 1)
}

func TestTiebreakOrdering(t *testing.T) {
	tr := New(6)
	tr.Insert(Key{Primary: 5, Tie: 2}, 2)
	tr.Insert(Key{Primary: 5, Tie: 1}, 1)
	tr.Insert(Key{Primary: 5, Tie: 3}, 3)
	for r := 1; r <= 3; r++ {
		if _, v := tr.Select(r); v != int64(r) {
			t.Errorf("Select(%d) value = %d, want %d", r, v, r)
		}
	}
}

func TestWalkAscending(t *testing.T) {
	tr := New(7)
	rng := xrand.New(42)
	n := 500
	for i := 0; i < n; i++ {
		tr.Insert(Key{Primary: rng.Uint64(), Tie: uint64(i)}, int64(i))
	}
	var prev *Key
	count := 0
	tr.Walk(func(k Key, _ int64) {
		if prev != nil && !prev.Less(k) {
			t.Fatalf("Walk not ascending: %v then %v", *prev, k)
		}
		kk := k
		prev = &kk
		count++
	})
	if count != n {
		t.Fatalf("Walk visited %d, want %d", count, n)
	}
}

// TestAgainstReference drives random operations against a sorted-slice
// reference model and checks every query result plus structural invariants.
func TestAgainstReference(t *testing.T) {
	tr := New(8)
	rng := xrand.New(99)
	var ref []uint64 // sorted primaries; ties unused (unique primaries only)
	present := map[uint64]bool{}

	refInsert := func(k uint64) {
		i := sort.Search(len(ref), func(i int) bool { return ref[i] >= k })
		ref = append(ref, 0)
		copy(ref[i+1:], ref[i:])
		ref[i] = k
	}
	refDelete := func(k uint64) {
		i := sort.Search(len(ref), func(i int) bool { return ref[i] >= k })
		ref = append(ref[:i], ref[i+1:]...)
	}

	const ops = 4000
	for op := 0; op < ops; op++ {
		k := rng.Uint64() % 512 // small key space to force collisions/deletes
		switch {
		case !present[k] && rng.Bool(0.6):
			tr.Insert(key(k), int64(k))
			refInsert(k)
			present[k] = true
		case present[k]:
			if !tr.Delete(key(k)) {
				t.Fatalf("op %d: Delete(%d) = false, key present", op, k)
			}
			refDelete(k)
			present[k] = false
		default:
			if tr.Delete(key(k)) {
				t.Fatalf("op %d: Delete(%d) = true, key absent", op, k)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, ref %d", op, tr.Len(), len(ref))
		}
		if op%97 == 0 {
			if !tr.validate() {
				t.Fatalf("op %d: invariants violated", op)
			}
			for i, k := range ref {
				r, ok := tr.Rank(key(k))
				if !ok || r != i+1 {
					t.Fatalf("op %d: Rank(%d) = %d,%v want %d,true", op, k, r, ok, i+1)
				}
				if kk, _ := tr.Select(i + 1); kk.Primary != k {
					t.Fatalf("op %d: Select(%d) = %d, want %d", op, i+1, kk.Primary, k)
				}
			}
			if len(ref) > 0 {
				if k, _ := tr.Min(); k.Primary != ref[0] {
					t.Fatalf("op %d: Min = %d, want %d", op, k.Primary, ref[0])
				}
				if k, _ := tr.Max(); k.Primary != ref[len(ref)-1] {
					t.Fatalf("op %d: Max = %d, want %d", op, k.Primary, ref[len(ref)-1])
				}
			}
		}
	}
}

// Property: for any set of distinct primaries, Rank(Select(r)) == r for all r
// and ranks are a bijection onto 1..n.
func TestQuickRankSelectBijection(t *testing.T) {
	f := func(raw []uint64, seed uint64) bool {
		tr := New(seed)
		seen := map[uint64]bool{}
		var keys []uint64
		for _, k := range raw {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
				tr.Insert(key(k), int64(k))
			}
		}
		if tr.Len() != len(keys) {
			return false
		}
		for r := 1; r <= tr.Len(); r++ {
			k, v := tr.Select(r)
			if uint64(v) != k.Primary {
				return false
			}
			got, ok := tr.Rank(k)
			if !ok || got != r {
				return false
			}
		}
		return tr.validate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: deleting every element in any order leaves an empty, valid tree,
// and node recycling does not corrupt subsequent inserts.
func TestQuickDeleteAllThenReuse(t *testing.T) {
	f := func(raw []uint16, seed uint64) bool {
		tr := New(seed)
		seen := map[uint64]bool{}
		var keys []uint64
		for _, k16 := range raw {
			k := uint64(k16)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
				tr.Insert(key(k), 0)
			}
		}
		for _, k := range keys {
			if !tr.Delete(key(k)) {
				return false
			}
		}
		if tr.Len() != 0 {
			return false
		}
		// Reuse recycled nodes.
		for i, k := range keys {
			tr.Insert(key(k), int64(i))
		}
		if tr.Len() != len(keys) {
			return false
		}
		return tr.validate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
