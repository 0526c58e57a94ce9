package recency

import (
	"testing"

	"fscache/internal/xrand"
)

// fuzzLines is the line population FuzzIndex draws from: enough for one index
// to outgrow 4096 slots, which takes over 3276 lines (4096 < 1.25·live).
const fuzzLines = 6144

// wideLines is the line count of a wide script's set: 2^17, the full-scale
// L2, so that its slot table and line table both have a high half. Its
// fuzzLines lines straddle 2^16.
const wideLines = 1 << 17

// scriptStats is what runScript saw: the compactions, those that shrank the
// capacity, those that resized one order while the other held lines (and so
// re-laid out a set with live contents to carry over), and the largest
// capacity either order reached.
type scriptStats struct {
	compactions, shrinks, sharedResizes int
	maxCap                              int32
}

// runScript interprets data as operations on two orders of one set (New(2,
// lines)) that share one slot table, two bytes each: the first picks the
// order (bit 0) and the operation, the second the line it applies to or the
// size of a bulk insert. After every operation both orders are compared with
// their own slice models — Live, Worst and the Rank of every tracked line —
// and audited by CheckInvariants under one claimed set. Every compaction must
// keep to the capacity band for the population it saw, with its hysteresis
// (bandErr).
// The set is for fuzzLines lines, or for wideLines when wide, whose id tables
// have high halves; either way the script's lines are fuzzLines of them.
func runScript(t testing.TB, data []byte, wide bool) (st scriptStats) {
	lines, first := int32(fuzzLines), int32(0)
	if wide {
		lines, first = wideLines, 1<<16-fuzzLines/2
	}
	idx := New(2, lines)
	models := [2]*model{{seqOf: map[int32]uint64{}}, {seqOf: map[int32]uint64{}}}
	slot := newSlots(lines)
	claimed := make([]bool, lines)
	var used [2][]int32
	free := make([]int32, 0, fuzzLines)
	for l := first + fuzzLines - 1; l >= first; l-- {
		free = append(free, l)
	}
	seq := uint64(0)
	for step := 0; step+1 < len(data); step += 2 {
		op, arg := data[step], int(data[step+1])
		k := op & 1
		p, m := &idx[k], models[k]
		pick := func() int { return arg * len(used[k]) / 256 }
		// audit follows an Insert or Hit: only a compaction gives slots back,
		// and it ran before the access, on live lines.
		audit := func(freeBefore, capBefore, live int32) {
			if p.Free() <= freeBefore {
				return
			}
			st.compactions++
			if p.Cap() < capBefore {
				st.shrinks++
			}
			if p.Cap() != capBefore && idx[1-k].Live() > 0 {
				st.sharedResizes++
			}
			if err := bandErr(capBefore, p.Cap(), live); err != nil {
				t.Fatalf("step %d: order %d: %v", step/2, k, err)
			}
		}
		insert := func(at uint64) {
			l := free[len(free)-1]
			free = free[:len(free)-1]
			used[k] = append(used[k], l)
			freeBefore, capBefore, live := p.Free(), p.Cap(), p.Live()
			p.Insert(l, at, slot)
			audit(freeBefore, capBefore, live)
			m.insert(l, at)
		}
		hit := func(l int32, at uint64) {
			freeBefore, capBefore := p.Free(), p.Cap()
			p.Hit(l, at, slot)
			audit(freeBefore, capBefore, p.Live())
			m.hit(l, at)
		}
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
			hit(used[k][pick()], seq)
		case kind == 4: // a hit under the current seq is still the most recent
			hit(used[k][pick()], p.LastSeq())
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
		st.maxCap = max(st.maxCap, p.Cap())
		clear(claimed)
		for i := range idx {
			models[i].compare(t, step/2, &idx[i], slot)
			if err := idx[i].CheckInvariants(slot, claimed); err != nil {
				t.Fatalf("step %d: order %d: %v", step/2, i, err)
			}
		}
		if n := tracked(slot); n != len(models[0].order)+len(models[1].order) {
			t.Fatalf("step %d: slot table tracks %d lines, models %d and %d", step/2, n, len(models[0].order), len(models[1].order))
		}
	}
	return st
}

// fuzzSeeds are FuzzIndex's starting scripts, all on TestIndexAgainstModel's
// seed and operation mix drawn over both orders: one over a few lines, which
// compacts inside the one-word minimum capacity; one that starts from 64
// lines an order and so grows past it; one that bulk-fills an order past
// 2048 lines around the same operations, which takes it past 4096 slots; one
// that fills an order to 128 lines and four words, evicts all but 30 and
// hits until it compacts, which shrinks it to one word; and one that fills
// order 1 to its 64 slots, grows order 0 past them, then hits order 1 until
// it grows too, so each resize re-lays out a set whose other order holds
// lines. FuzzIndex runs each over both layouts.
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
	const bulk, hit, evict = 2 << 1, 3 << 1, 6 << 1
	tiny := mix(nil, 240)
	small := mix([]byte{bulk, 0, bulk | 1, 0}, 100) // 64 lines each
	large := mix([]byte{bulk, 32, bulk | 1, 0}, 30) // 2112 lines and 64
	large = mix(append(large, bulk, 63), 20)        // all that are left: compacts and grows
	shrink := []byte{bulk, 1, bulk | 1, 0, hit, 0}  // 128 lines and 64; 256 slots
	for i := 0; i < 98; i++ {
		shrink = append(shrink, evict, byte(rng.Intn(256)))
	}
	for i := 0; i < 130; i++ {
		shrink = append(shrink, hit, byte(rng.Intn(256)))
	}
	shrink = mix(shrink, 40)
	shared := []byte{bulk | 1, 0, bulk, 1, hit | 1, 0} // 64 lines in order 1, 128 in order 0
	shared = mix(shared, 60)
	return [][]byte{tiny, small, large, shrink, shared}
}

// The seeds must cross what FuzzIndex is there to cover before any mutation,
// in both layouts: compactions at the minimum capacity, and growth past it and
// past 4096 slots.
func TestFuzzSeedsCrossGrowth(t *testing.T) {
	seeds := fuzzSeeds()
	for _, wide := range []bool{false, true} {
		for i, want := range []struct{ above, upTo int32 }{{0, minCap}, {minCap, 4096}, {4096, 1 << 20}} {
			if st := runScript(t, seeds[i], wide); st.compactions < 1 || st.maxCap <= want.above || st.maxCap > want.upTo {
				t.Errorf("seed %d (wide %v): %d compactions, capacity %d; want a compaction and a capacity in (%d, %d]", i, wide, st.compactions, st.maxCap, want.above, want.upTo)
			}
		}
	}
}

// The shrink seed must take a capacity down, which only a compaction on a
// population that fell below a quarter of it does.
func TestFuzzSeedsCrossShrink(t *testing.T) {
	if st := runScript(t, fuzzSeeds()[3], false); st.shrinks < 1 {
		t.Errorf("shrink seed: %d compactions, none shrank the capacity (largest %d)", st.compactions, st.maxCap)
	}
}

// The shared seed must resize each order while the other holds lines, which
// is when a relayout has live segments to carry over unchanged.
func TestFuzzSeedsCrossSharedResize(t *testing.T) {
	if st := runScript(t, fuzzSeeds()[4], false); st.sharedResizes < 2 {
		t.Errorf("shared seed: %d resizes with the other order holding lines, want >= 2", st.sharedResizes)
	}
}

// FuzzIndex drives two orders of one set over one slot table from a byte
// stream and checks every step against their slice models (see runScript).
// The seeds run first in the narrow layout, then in the wide one.
func FuzzIndex(f *testing.F) {
	for _, wide := range []bool{false, true} {
		for _, s := range fuzzSeeds() {
			f.Add(wide, s)
		}
	}
	f.Fuzz(func(t *testing.T, wide bool, data []byte) {
		if len(data) > 1024 {
			t.Skip("long scripts only repeat what short ones cover")
		}
		runScript(t, data, wide)
	})
}
