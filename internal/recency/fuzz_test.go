package recency

import (
	"testing"

	"fscache/internal/xrand"
)

// fuzzLines is the line population FuzzIndex draws from: enough for one index
// to hold the 2048 lines that take its capacity past 4096 slots.
const fuzzLines = 6144

// runScript interprets data as operations on two indexes that share one slot
// table, two bytes each: the first picks the index (bit 0) and the operation,
// the second the line it applies to or the size of a bulk insert. After every
// operation both indexes are compared with their slice models — Live, Worst
// and the Rank of every tracked line — and audited by CheckInvariants under
// one claimed set. It returns the compactions it saw and the largest capacity
// either index reached.
func runScript(t testing.TB, data []byte) (compactions int, maxCap int32) {
	idx := [2]Index{New(), New()}
	models := [2]*model{{seqOf: map[int32]uint64{}}, {seqOf: map[int32]uint64{}}}
	slot := make([]int32, fuzzLines)
	var used [2][]int32
	free := make([]int32, 0, fuzzLines)
	for l := int32(fuzzLines - 1); l >= 0; l-- {
		free = append(free, l)
	}
	seq := uint64(0)
	for step := 0; step+1 < len(data); step += 2 {
		op, arg := data[step], int(data[step+1])
		k := op & 1
		p, m := &idx[k], models[k]
		pick := func() int { return arg * len(used[k]) / 256 }
		insert := func(at uint64) {
			l := free[len(free)-1]
			free = free[:len(free)-1]
			used[k] = append(used[k], l)
			p.Insert(l, at, slot)
			m.insert(l, at)
		}
		freeBefore := p.Free()
		switch kind := op >> 1 % 7; {
		case kind == 0 && len(free) > 0: // most recent
			seq++
			insert(seq)
		case kind == 1 && len(free) > 0: // below the lines of the current seq
			insert(p.LastSeq())
		case kind == 2 && len(free) > 0: // bulk, so that short inputs reach large capacities
			for n := 64 * (arg%64 + 1); n > 0 && len(free) > 0; n-- {
				seq++
				insert(seq)
			}
		case len(used[k]) == 0:
		case kind <= 3:
			seq++
			l := used[k][pick()]
			p.Hit(l, seq, slot)
			m.hit(l, seq)
		case kind == 4: // a hit under the current seq is still the most recent
			l, at := used[k][pick()], p.LastSeq()
			p.Hit(l, at, slot)
			m.hit(l, at)
		case kind == 5 && len(free) > 0:
			i := pick()
			from, to := used[k][i], free[len(free)-1]
			p.Move(from, to, slot)
			m.move(from, to)
			used[k][i], free[len(free)-1] = to, from
		default:
			i := pick()
			l := used[k][i]
			used[k][i] = used[k][len(used[k])-1]
			used[k] = used[k][:len(used[k])-1]
			free = append(free, l)
			p.Evict(l, slot)
			m.evict(l)
		}
		// Only a compaction gives slots back.
		if p.Free() > freeBefore {
			compactions++
		}
		if p.Cap() > maxCap {
			maxCap = p.Cap()
		}
		claimed := make([]bool, fuzzLines)
		for i := range idx {
			models[i].compare(t, step/2, &idx[i], slot)
			if err := idx[i].CheckInvariants(slot, claimed); err != nil {
				t.Fatalf("step %d: index %d: %v", step/2, i, err)
			}
		}
		if n := tracked(slot); n != len(models[0].order)+len(models[1].order) {
			t.Fatalf("step %d: slot table tracks %d lines, models %d and %d", step/2, n, len(models[0].order), len(models[1].order))
		}
	}
	return compactions, maxCap
}

// fuzzSeeds are FuzzIndex's starting scripts, all on TestIndexAgainstModel's
// seed and operation mix drawn over both indexes: one over a few lines, which
// compacts inside the one-word minimum capacity; one that starts from 64
// lines an index and so grows past it; and one that bulk-fills an index past
// 2048 lines around the same operations, which takes it past 4096 slots.
func fuzzSeeds() [][]byte {
	rng := xrand.New(0x5eed)
	mix := func(script []byte, ops int) []byte {
		for ; ops > 0; ops-- {
			var kind byte
			switch u := rng.Float64(); {
			case u < 0.20:
				kind = 0
			case u < 0.30:
				kind = 1
			case u < 0.62:
				kind = 3
			case u < 0.70:
				kind = 4
			case u < 0.85:
				kind = 5
			default:
				kind = 6
			}
			script = append(script, kind<<1|byte(rng.Intn(2)), byte(rng.Intn(256)))
		}
		return script
	}
	const bulk = 2 << 1
	tiny := mix(nil, 160)
	small := mix([]byte{bulk, 0, bulk | 1, 0}, 100) // 64 lines each
	large := mix([]byte{bulk, 32, bulk | 1, 0}, 30) // 2112 lines and 64
	large = mix(append(large, bulk, 63), 20)        // all that are left: compacts and grows
	return [][]byte{tiny, small, large}
}

// The seeds must cross what FuzzIndex is there to cover before any mutation:
// compactions at the minimum capacity, and growth past it and past 4096 slots.
func TestFuzzSeedsCrossGrowth(t *testing.T) {
	seeds := fuzzSeeds()
	for i, want := range []struct{ above, upTo int32 }{{0, minCap}, {minCap, 4096}, {4096, 1 << 20}} {
		if c, maxCap := runScript(t, seeds[i]); c < 1 || maxCap <= want.above || maxCap > want.upTo {
			t.Errorf("seed %d: %d compactions, capacity %d; want a compaction and a capacity in (%d, %d]", i, c, maxCap, want.above, want.upTo)
		}
	}
}

// FuzzIndex drives two indexes over one slot table from a byte stream and
// checks every step against the slice model (see runScript).
func FuzzIndex(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip("long scripts only repeat what short ones cover")
		}
		runScript(t, data)
	})
}
