package futility_test

import (
	"reflect"
	"testing"

	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/xrand"
)

// coarse32p is bench/'s sim-fs-coarse-32p cache (32768 lines, 16 ways, H3
// indexing, coarse timestamps, FS feedback, 32 partitions, an exact LRU
// reference) after a fill, a target shift that moves half of every even
// partition's share to the odd one after it, and a shift back, at seed 7.
type coarse32p struct {
	c      *core.Cache
	arr    *cachearray.SetAssoc
	coarse *futility.CoarseTS
	ref    *futility.ExactLRU
}

const c32Lines = 32768

func newCoarse32p(t *testing.T) coarse32p {
	const parts, share = 32, c32Lines / 32
	k := coarse32p{
		arr:    cachearray.NewSetAssoc(c32Lines, 16, cachearray.IndexH3, 1),
		coarse: futility.NewCoarseTS(c32Lines, parts),
		ref:    futility.NewExactLRU(c32Lines, parts),
	}
	k.c = core.New(core.Config{
		Array:     k.arr,
		Ranker:    k.coarse,
		Reference: k.ref,
		Scheme:    core.NewFSFeedback(parts, core.FSFeedbackConfig{}),
		Parts:     parts,
	})
	rng := xrand.New(7)
	run := func(targets func(p int) int) {
		tg := make([]int, parts)
		for p := range tg {
			tg[p] = targets(p)
		}
		k.c.SetTargets(tg)
		for i := 0; i < 4*c32Lines; i++ {
			p := rng.Intn(parts)
			k.c.Access(uint64(p)<<32|rng.Uint64n(2*share), p, trace.NoNextUse)
		}
	}
	equal := func(int) int { return share }
	run(equal)
	run(func(p int) int { return share/2 + p%2*share }) // ½ and 1½ shares
	run(equal)
	if err := k.c.CheckInvariants(); err != nil {
		t.Fatal(err) // includes every order's placement in the one set
	}
	return k
}

// referenceBytes is the capacity in bytes of the reference's recency set:
// its bitmap words, Fenwick nodes and slot entries.
func (k coarse32p) referenceBytes() int {
	return k.ref.Orders()[0].Bytes()
}

// fieldBytes is the capacity in bytes of the field name of the struct v
// points to: a slice, or a struct of slices such as a recency.Table's two
// halves. It reads them through reflection so that no package exports its
// per-line arrays for this audit.
func fieldBytes(t *testing.T, v any, name string) int {
	f := reflect.ValueOf(v).Elem().FieldByName(name)
	switch f.Kind() {
	case reflect.Slice:
		return f.Cap() * int(f.Type().Elem().Size())
	case reflect.Struct:
		bytes := 0
		for i := range f.NumField() {
			if s := f.Field(i); s.Kind() == reflect.Slice {
				bytes += s.Cap() * int(s.Type().Elem().Size())
			}
		}
		return bytes
	}
	t.Fatalf("%T has no slice or table field %s", v, name)
	return 0
}

// The reference keeps its recency storage in the three arrays of one set,
// within 4.6 bytes a line. The sizes are the arrays' capacities, whole pages
// from one page up, read from the slices, not from the allocator. They are
// 145 408 bytes, 4.44 a line (1.8 slots of a 2-byte line id, a bitmap bit
// and a Fenwick share each).
func TestCoarse32pReferenceStorage(t *testing.T) {
	k := newCoarse32p(t)
	if bytes := k.referenceBytes(); 5*bytes > 23*c32Lines {
		t.Errorf("reference recency set: %d bytes, %.2f a line", bytes, float64(bytes)/c32Lines)
	}
}

// Every per-line array of the whole cache, summed by capacity, is within
// DESIGN §10's per-line total of 16.6 bytes: the array's addresses (8) and
// valid words (⅛), core's partition codes (1: 32 partitions need no high
// half), CoarseTS's timestamps (1), and the reference's slot table (2) and
// recency set (4.44). They are 542 720 bytes, 16.56 a line.
func TestCoarse32pLineStorage(t *testing.T) {
	k := newCoarse32p(t)
	arrays := []struct {
		name  string
		bytes int
	}{
		{"array addresses", fieldBytes(t, k.arr, "addrs")},
		{"array valid words", fieldBytes(t, k.arr, "valid")},
		{"core partition codes", fieldBytes(t, k.c, "meta")},
		{"coarse timestamps", fieldBytes(t, k.coarse, "ts")},
		{"reference slot table", k.ref.Slots().Bytes()},
		{"reference recency set", k.referenceBytes()},
	}
	total := 0
	for _, a := range arrays {
		total += a.bytes
	}
	if 5*total > 83*c32Lines {
		for _, a := range arrays {
			t.Logf("%s: %d bytes, %.3f a line", a.name, a.bytes, float64(a.bytes)/c32Lines)
		}
		t.Errorf("per-line arrays: %d bytes, %.2f a line", total, float64(total)/c32Lines)
	}
}
