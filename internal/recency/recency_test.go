package recency

import (
	"fmt"
	"testing"

	"fscache/internal/xrand"
)

// model is the order an Index must keep, as a plain slice: lines most recent
// first, with the seq each one was last accessed under.
type model struct {
	order   []int32
	seqOf   map[int32]uint64
	lastSeq uint64
}

func (m *model) remove(line int32) {
	for i, l := range m.order {
		if l == line {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
	panic("model: line not tracked")
}

func (m *model) placeAt(i int, line int32) {
	m.order = append(m.order, 0)
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = line
}

// insert puts a line accessed under a new seq first, and one accessed under
// the current seq below every line already carrying it.
func (m *model) insert(line int32, seq uint64) {
	i := 0
	if seq == m.lastSeq {
		for i < len(m.order) && m.seqOf[m.order[i]] == seq {
			i++
		}
	}
	m.lastSeq = seq
	m.seqOf[line] = seq
	m.placeAt(i, line)
}

func (m *model) hit(line int32, seq uint64) {
	m.remove(line)
	m.lastSeq = seq
	m.seqOf[line] = seq
	m.placeAt(0, line)
}

func (m *model) evict(line int32) {
	m.remove(line)
	delete(m.seqOf, line)
}

func (m *model) move(from, to int32) {
	for i, l := range m.order {
		if l == from {
			m.order[i] = to
		}
	}
	m.seqOf[to] = m.seqOf[from]
	delete(m.seqOf, from)
}

func (m *model) compare(t testing.TB, step int, p *Index, slot []int32) {
	t.Helper()
	if int(p.Live()) != len(m.order) {
		t.Fatalf("step %d: Live = %d, model %d", step, p.Live(), len(m.order))
	}
	worst := int32(-1)
	if len(m.order) > 0 {
		worst = m.order[len(m.order)-1]
	}
	if got := p.Worst(); got != worst {
		t.Fatalf("step %d: Worst = %d, model %d", step, got, worst)
	}
	for i, l := range m.order {
		if got := p.Rank(slot[l]); int(got) != i+1 {
			t.Fatalf("step %d: line %d has rank %d, model %d of %d", step, l, got, i+1, len(m.order))
		}
	}
}

// tracked counts the lines a slot table holds a slot for.
func tracked(slot []int32) int {
	n := 0
	for _, s := range slot {
		if s != 0 {
			n++
		}
	}
	return n
}

// TestIndexAgainstModel drives one Index and the slice model with a seeded
// stream of inserts (a third of them under the current seq), hits, renames
// and evictions: first over a small population, then a large one, so the
// index compacts many times and grows after it has been in use.
func TestIndexAgainstModel(t *testing.T) {
	const lines = 160
	steps := 30000
	if testing.Short() {
		steps = 8000
	}
	p := &New(1)[0]
	slot := make([]int32, lines)
	m := &model{seqOf: map[int32]uint64{}}
	rng := xrand.New(0x5eed)
	var free, used []int32
	for l := int32(lines - 1); l >= 0; l-- {
		free = append(free, l)
	}
	drop := func(s []int32, i int) []int32 { s[i] = s[len(s)-1]; return s[:len(s)-1] }

	seq := uint64(0)
	compactions, growths := 0, 0
	for step := 0; step < steps; step++ {
		level := lines / 10
		if step > steps/2 {
			level = lines * 9 / 10
		}
		pInsert := 0.15
		if len(used) < level {
			pInsert = 0.45
		}
		freeBefore, capBefore := p.Free(), p.Cap()
		u := rng.Float64()
		switch {
		case len(used) == 0 || (u < pInsert && len(free) > 0):
			i := rng.Intn(len(free))
			l := free[i]
			free = drop(free, i)
			used = append(used, l)
			if !rng.Bool(1.0 / 3) {
				seq++
			}
			p.Insert(l, seq, slot)
			m.insert(l, seq)
		case u < 0.70:
			l := used[rng.Intn(len(used))]
			// A few hits reuse the current seq: still most recent.
			if !rng.Bool(1.0 / 8) {
				seq++
			}
			p.Hit(l, seq, slot)
			m.hit(l, seq)
		case u < 0.85 && len(free) > 0:
			j := rng.Intn(len(used))
			i := rng.Intn(len(free))
			from, to := used[j], free[i]
			p.Move(from, to, slot)
			m.move(from, to)
			used[j], free[i] = to, from
		default:
			i := rng.Intn(len(used))
			l := used[i]
			used = drop(used, i)
			free = append(free, l)
			p.Evict(l, slot)
			m.evict(l)
		}
		// Only a compaction gives slots back.
		if p.Free() > freeBefore {
			compactions++
		}
		if p.Cap() > capBefore && step > steps/2 {
			growths++
		}
		if p.LastSeq() != m.lastSeq {
			t.Fatalf("step %d: LastSeq = %d, model %d", step, p.LastSeq(), m.lastSeq)
		}
		m.compare(t, step, p, slot)
		if n := tracked(slot); n != len(m.order) {
			t.Fatalf("step %d: slot table tracks %d lines, model %d", step, n, len(m.order))
		}
		if step%64 == 0 {
			if err := p.CheckInvariants(slot, make([]bool, lines)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := p.CheckInvariants(slot, make([]bool, lines)); err != nil {
		t.Fatal(err)
	}
	if compactions < 8 || growths < 1 {
		t.Fatalf("stream crossed %d compactions and %d late capacity growths, want >= 8 and >= 1", compactions, growths)
	}
}

// bandErr checks a compaction that found capacity before for live lines and
// left after: a capacity within [1.25·live, 3·live] that leaves minFree slots
// free is kept (the hysteresis), and any other is resized to 1.5·live +
// minFree rounded up to a word.
func bandErr(before, after, live int32) error {
	b, a, l := int64(before), int64(after), int64(live)
	if 4*b >= 5*l && b <= 3*l && b-l >= minFree {
		if a != b {
			return fmt.Errorf("%d lines in capacity %d, within the band, resized to %d", live, before, after)
		}
		return nil
	}
	if a%minCap != 0 || 2*a < 3*l+2*minFree || 2*a >= 3*l+2*(minFree+minCap) {
		return fmt.Errorf("%d lines in capacity %d resized to %d, not 1.5·live + %d rounded up to a word", live, before, after, minFree)
	}
	return nil
}

// oscillation drives one order whose population oscillates between lo and
// hi lines — across 512, the edge of a power-of-two rule — with 2·hi hits at
// each end, counting the compactions there and checking each against bandErr.
type oscillation struct {
	p          *Index
	slot       []int32
	seq        uint64
	atLo, atHi int // compactions at each end
	bad        error
}

const oscLo, oscHi = 448, 576

func newOscillation() *oscillation {
	o := &oscillation{p: &New(1)[0], slot: make([]int32, oscHi)}
	for l := int32(0); l < oscLo; l++ {
		o.seq++
		o.p.Insert(l, o.seq, o.slot)
	}
	return o
}

func (o *oscillation) hits(live int32, at *int) {
	for i := int32(0); i < 2*oscHi; i++ {
		free, before := o.p.Free(), o.p.Cap()
		o.seq++
		o.p.Hit(i%live, o.seq, o.slot)
		if o.p.Free() > free {
			*at++
			if err := bandErr(before, o.p.Cap(), live); err != nil && o.bad == nil {
				o.bad = err
			}
		}
	}
}

// cycle grows the population to hi, hits, shrinks it to lo and hits.
func (o *oscillation) cycle() {
	for l := int32(oscLo); l < oscHi; l++ {
		o.seq++
		o.p.Insert(l, o.seq, o.slot)
	}
	o.hits(oscHi, &o.atHi)
	for l := int32(oscLo); l < oscHi; l++ {
		o.p.Evict(l, o.slot)
	}
	o.hits(oscLo, &o.atLo)
}

// The oscillation compacts at both ends of every cycle, yet never
// reallocates: its capacity settles at 896, 1.5·576 + 32, which is over
// 1.25·576 and under 3·448. Every compaction keeps to the band.
func TestOscillationDoesNotAllocate(t *testing.T) {
	o := newOscillation()
	o.cycle()
	settled := o.p.Cap()
	o.atLo, o.atHi = 0, 0
	const runs = 8
	if allocs := testing.AllocsPerRun(runs, o.cycle); allocs != 0 {
		t.Errorf("%v allocations per cycle", allocs)
	}
	// AllocsPerRun makes one warm-up call besides the runs.
	if o.atLo < runs+1 || o.atHi < runs+1 || o.p.Cap() != settled || settled != 896 {
		t.Errorf("%d cycles compacted %d times at %d lines and %d at %d; capacity %d, settled at %d, want 896",
			runs+1, o.atLo, oscLo, o.atHi, oscHi, o.p.Cap(), settled)
	}
	if o.bad != nil {
		t.Error(o.bad)
	}
	if err := o.p.CheckInvariants(o.slot, make([]bool, oscHi)); err != nil {
		t.Fatal(err)
	}
}

// Two orders over disjoint lines share one slot table; the shared claimed
// set is what catches a line held by both.
func TestIndexSharedSlotTable(t *testing.T) {
	orders := New(2)
	a, b := &orders[0], &orders[1]
	slot := make([]int32, 8)
	for l := int32(0); l < 8; l++ {
		p := a
		if l%2 == 1 {
			p = b
		}
		p.Insert(l, uint64(l+1), slot)
	}
	a.Hit(0, 9, slot)
	b.Evict(3, slot)
	claimed := make([]bool, len(slot))
	if err := a.CheckInvariants(slot, claimed); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(slot, claimed); err != nil {
		t.Fatal(err)
	}
	for l, c := range claimed {
		if c != (slot[l] != 0) {
			t.Fatalf("line %d: claimed %v, slot %d", l, c, slot[l])
		}
	}
	if a.Worst() != 2 || b.Worst() != 1 {
		t.Fatalf("Worst = %d and %d, want 2 and 1", a.Worst(), b.Worst())
	}
	if err := a.CheckInvariants(slot, claimed); err == nil {
		t.Fatal("a second claim of the same lines went unnoticed")
	}
}

// As an order grows, every relayout gives each of its set's arrays a
// capacity equal to its length under a page and, from one page up, whole
// pages less than a page over it; Storage reports the capacities. The other
// order's one line is copied through every relayout and audited after each.
func TestRelayoutRoundsUpToPages(t *testing.T) {
	const lines = 1 << 17 // 2048 bitmap words and more: every array passes a page
	orders := New(2)
	slot := make([]int32, lines)
	orders[0].Insert(0, 1, slot)
	p := &orders[1]
	var paged [3]bool
	for l := int32(1); l < lines; l++ {
		capBefore := p.Cap()
		p.Insert(l, uint64(l+1), slot)
		if p.Cap() == capBefore {
			continue
		}
		s := p.set
		for i, a := range []struct {
			name           string
			len, cap, size int
		}{
			{"bitmap", len(s.words), cap(s.words), 8},
			{"Fenwick", len(s.nodes), cap(s.nodes), 4},
			{"slot", len(s.lineAt), cap(s.lineAt), 4},
		} {
			n, c := a.len*a.size, a.cap*a.size
			if n < pageBytes && c != n || n >= pageBytes && (c%pageBytes != 0 || c-n >= pageBytes) {
				t.Fatalf("capacity %d: %s array of %d B has a capacity of %d B", p.Cap(), a.name, n, c)
			}
			paged[i] = paged[i] || n >= pageBytes
		}
		if err := check(p, slot); err != nil {
			t.Fatalf("capacity %d: %v", p.Cap(), err)
		}
	}
	if paged != [3]bool{true, true, true} {
		t.Fatalf("bitmap, Fenwick and slot arrays reached a page: %v", paged)
	}
	s := p.set
	if w, n, l := p.Storage(); w != cap(s.words) || n != cap(s.nodes) || l != cap(s.lineAt) {
		t.Fatalf("Storage = %d, %d, %d; capacities %d, %d, %d", w, n, l, cap(s.words), cap(s.nodes), cap(s.lineAt))
	}
}

// check audits every order of p's set under one claimed set.
func check(p *Index, slot []int32) error {
	claimed := make([]bool, len(slot))
	for i := range p.set.orders {
		if err := p.set.orders[i].CheckInvariants(slot, claimed); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants must notice each kind of damage it documents. The damage is
// to the first of two orders of a set; the second stays empty, so that
// nothing but the placement of its segments can be wrong with it.
func TestCheckInvariantsDetects(t *testing.T) {
	build := func() (*Index, []int32) {
		p := &New(2)[0]
		slot := make([]int32, 2048) // room for the lines of the growth cases
		for l := int32(0); l < 6; l++ {
			p.Insert(l, uint64(l), slot)
		}
		p.Evict(2, slot)
		p.Hit(0, 7, slot)
		if err := check(p, slot); err != nil {
			t.Fatalf("clean index: %v", err)
		}
		return p, slot
	}
	for _, c := range []struct {
		name   string
		damage func(p *Index, slot []int32)
	}{
		{"fenwick node", func(p *Index, slot []int32) { p.nodes[1]++ }},
		{"flipped bit of a live slot", func(p *Index, slot []int32) { p.words[0] &^= 1 << uint(slot[3]-1) }},
		{"flipped bit of a dead slot", func(p *Index, slot []int32) { p.words[0] |= 1 << uint(p.next-1) }},
		{"stale node after a retire", func(p *Index, slot []int32) {
			p.words[0] &^= 1 << uint(slot[3]-1)
			slot[3] = 0
			p.live--
		}},
		{"live count", func(p *Index, slot []int32) { p.live-- }},
		{"capacity", func(p *Index, slot []int32) { p.cap-- }},
		{"array lengths", func(p *Index, slot []int32) { p.lineAt = p.lineAt[:len(p.lineAt)-1] }},
		{"next slot", func(p *Index, slot []int32) { p.next = p.cap + 2 }},
		{"group", func(p *Index, slot []int32) { p.group = p.next + 1 }},
		{"slot of a line", func(p *Index, slot []int32) { slot[1], slot[4] = slot[4], slot[1] }},
		{"line of a slot", func(p *Index, slot []int32) { p.lineAt[slot[1]] = 4 }},
		{"line out of range", func(p *Index, slot []int32) { p.lineAt[slot[1]] = int32(len(slot)) }},
		// Every count agrees with it; only where the slot lies gives it away.
		{"live slot past next", func(p *Index, slot []int32) {
			s := p.next
			p.lineAt[s], slot[7] = 7, s
			p.add(s, 1)
			p.live++
		}},
		{"bit past the capacity", func(p *Index, slot []int32) {
			// 103 lines outgrow 128 slots, compacting into 192: three words
			// of four.
			seq := uint64(8)
			for l := int32(6); l < 104; l++ {
				p.Insert(l, seq, slot)
				seq++
			}
			for ; p.Cap() != 192 && seq < 1000; seq++ {
				p.Hit(5, seq, slot)
			}
			if err := check(p, slot); err != nil || p.Cap() != 192 || len(p.words) != 4 {
				t.Fatalf("capacity %d: %d words, %v", p.Cap(), len(p.words), err)
			}
			p.words[3] |= 1
		}},
		{"array of a page or more not in whole pages", func(p *Index, slot []int32) {
			// 2047 lines, compacted at least once into 1.25 slots a line or
			// more: the set's slot table passes 2048 entries, a page.
			seq := uint64(8)
			for l := int32(6); l < int32(len(slot)); l++ {
				p.Insert(l, seq, slot)
				seq++
			}
			for n := p.Cap(); n > 0; n-- {
				p.Hit(5, seq, slot)
				seq++
			}
			s := p.set
			if err := check(p, slot); err != nil || 4*len(s.lineAt) < pageBytes {
				t.Fatalf("%d-entry slot table: %v", len(s.lineAt), err)
			}
			s.lineAt = s.lineAt[:len(s.lineAt):len(s.lineAt)]
		}},
		// The empty second order reads no slot entry, so its own audit cannot
		// see that they are the first order's.
		{"overlapping segments", func(p *Index, slot []int32) { p.set.orders[1].lineAt = p.lineAt }},
		// A copy holds the very counts the set does, outside it.
		{"segment outside the set", func(p *Index, slot []int32) { p.nodes = append([]int32(nil), p.nodes...) }},
	} {
		p, slot := build()
		c.damage(p, slot)
		if check(p, slot) == nil {
			t.Errorf("%s: damage went unnoticed", c.name)
		}
	}
	// A copy of an order is none of its set's.
	p, slot := build()
	if cp := *p; cp.CheckInvariants(slot, make([]bool, len(slot))) == nil {
		t.Error("a copied order went unnoticed")
	}
}
