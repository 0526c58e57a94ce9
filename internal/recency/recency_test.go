package recency

import (
	"fmt"
	"maps"
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

func (m *model) compare(t testing.TB, step int, p *Index, slot *Table[uint16]) {
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
		if got := p.Rank(slot.At(l)); int(got) != i+1 {
			t.Fatalf("step %d: line %d has rank %d, model %d of %d", step, l, got, i+1, len(m.order))
		}
	}
}

// newSlots is NewSlots for a test that passes its table around by pointer.
func newSlots(lines int32) *Table[uint16] {
	t := NewSlots(lines)
	return &t
}

// tracked counts the lines a slot table holds a slot for.
func tracked(slot *Table[uint16]) int {
	n := 0
	for l := range int32(slot.Len()) {
		if slot.At(l) != 0 {
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
	p := &New(1, lines)[0]
	slot := newSlots(lines)
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
	slot       *Table[uint16]
	seq        uint64
	atLo, atHi int // compactions at each end
	bad        error
}

const oscLo, oscHi = 448, 576

func newOscillation() *oscillation {
	o := &oscillation{p: &New(1, oscHi)[0], slot: newSlots(oscHi)}
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
	orders := New(2, 8)
	a, b := &orders[0], &orders[1]
	slot := newSlots(8)
	for l := int32(0); l < 8; l++ {
		p := a
		if l%2 == 1 {
			p = b
		}
		p.Insert(l, uint64(l+1), slot)
	}
	a.Hit(0, 9, slot)
	b.Evict(3, slot)
	claimed := make([]bool, slot.Len())
	if err := a.CheckInvariants(slot, claimed); err != nil {
		t.Fatal(err)
	}
	if err := b.CheckInvariants(slot, claimed); err != nil {
		t.Fatal(err)
	}
	for l, c := range claimed {
		if s := slot.At(int32(l)); c != (s != 0) {
			t.Fatalf("line %d: claimed %v, slot %d", l, c, s)
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
// pages less than a page over it; Bytes reports the capacities. The other
// order's one line is copied through every relayout and audited after each.
// At 2^16 lines the line ids fit in the slot table's low half; at 2^17 it
// has a high half too.
func TestRelayoutRoundsUpToPages(t *testing.T) {
	// 1024 bitmap words and more: every array passes a page.
	for _, lines := range []int32{1 << 16, 1 << 17} {
		orders := New(2, lines)
		slot := newSlots(lines)
		orders[0].Insert(0, 1, slot)
		p := &orders[1]
		paged := map[string]bool{}
		for l := int32(1); l < lines; l++ {
			capBefore := p.Cap()
			p.Insert(l, uint64(l+1), slot)
			if p.Cap() == capBefore {
				continue
			}
			s := p.set
			for _, a := range []struct {
				name           string
				len, cap, size int
			}{
				{"bitmap", len(s.words), cap(s.words), 8},
				{"Fenwick", len(s.nodes), cap(s.nodes), 4},
				{"slot", len(s.lineAt.lo), cap(s.lineAt.lo), 2},
				{"slot high half", len(s.lineAt.hi), cap(s.lineAt.hi), 2},
			} {
				n, c := a.len*a.size, a.cap*a.size
				if n < pageBytes && c != n || n >= pageBytes && (c%pageBytes != 0 || c-n >= pageBytes) {
					t.Fatalf("%d lines, capacity %d: %s array of %d B has a capacity of %d B", lines, p.Cap(), a.name, n, c)
				}
				paged[a.name] = paged[a.name] || n >= pageBytes
			}
			if err := check(p, slot); err != nil {
				t.Fatalf("%d lines, capacity %d: %v", lines, p.Cap(), err)
			}
		}
		want := map[string]bool{"bitmap": true, "Fenwick": true, "slot": true, "slot high half": lines > 1<<16}
		if !maps.Equal(paged, want) {
			t.Fatalf("%d lines: arrays that reached a page: %v, want %v", lines, paged, want)
		}
		s := p.set
		if b := 8*cap(s.words) + 4*cap(s.nodes) + 2*cap(s.lineAt.lo) + 2*cap(s.lineAt.hi); p.Bytes() != b {
			t.Fatalf("%d lines: Bytes = %d; capacities %d B", lines, p.Bytes(), b)
		}
	}
}

// check audits every order of p's set under one claimed set.
func check(p *Index, slot *Table[uint16]) error {
	claimed := make([]bool, slot.Len())
	for i := range p.set.orders {
		if err := p.set.orders[i].CheckInvariants(slot, claimed); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants must notice each kind of damage it documents, in both
// layouts of the id tables: 4096 lines, whose ids and slots fit in 16 bits,
// and 2^17, whose do not. The damage is to the first of two orders of a set;
// the second stays empty, so that nothing but the placement of its segments
// can be wrong with it.
func TestCheckInvariantsDetects(t *testing.T) {
	build := func(lines int32) (*Index, *Table[uint16]) {
		p := &New(2, lines)[0]
		slot := newSlots(lines)
		for l := int32(0); l < 6; l++ {
			p.Insert(l, uint64(l), slot)
		}
		p.Evict(2, slot)
		p.Hit(0, 7, slot)
		if err := check(p, slot); err != nil {
			t.Fatalf("clean index of %d lines: %v", lines, err)
		}
		return p, slot
	}
	type damage struct {
		name   string
		damage func(p *Index, slot *Table[uint16])
	}
	both := []damage{
		{"fenwick node", func(p *Index, slot *Table[uint16]) { p.nodes[1]++ }},
		{"flipped bit of a live slot", func(p *Index, slot *Table[uint16]) { p.words[0] &^= 1 << uint(slot.At(3)-1) }},
		{"flipped bit of a dead slot", func(p *Index, slot *Table[uint16]) { p.words[0] |= 1 << uint(p.next-1) }},
		{"stale node after a retire", func(p *Index, slot *Table[uint16]) {
			p.words[0] &^= 1 << uint(slot.At(3)-1)
			slot.Put(3, 0)
			p.live--
		}},
		{"live count", func(p *Index, slot *Table[uint16]) { p.live-- }},
		{"capacity", func(p *Index, slot *Table[uint16]) { p.cap-- }},
		{"array lengths", func(p *Index, slot *Table[uint16]) { p.lineAt, _ = p.lineAt.split(int32(p.lineAt.Len() - 1)) }},
		{"next slot", func(p *Index, slot *Table[uint16]) { p.next = p.cap + 2 }},
		{"group", func(p *Index, slot *Table[uint16]) { p.group = p.next + 1 }},
		{"slot of a line", func(p *Index, slot *Table[uint16]) {
			s1, s4 := slot.At(1), slot.At(4)
			slot.Put(1, s4)
			slot.Put(4, s1)
		}},
		{"line of a slot", func(p *Index, slot *Table[uint16]) { p.lineAt.Put(slot.At(1), 4) }},
		{"line out of range", func(p *Index, slot *Table[uint16]) { p.lineAt.Put(slot.At(1), int32(slot.Len())) }},
		// Every count agrees with it; only where the slot lies gives it away.
		{"live slot past next", func(p *Index, slot *Table[uint16]) {
			s := p.next
			p.lineAt.Put(s, 7)
			slot.Put(7, s)
			p.add(s, 1)
			p.live++
		}},
		{"bit past the capacity", func(p *Index, slot *Table[uint16]) {
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
		{"array of a page or more not in whole pages", func(p *Index, slot *Table[uint16]) {
			// 4096 lines, compacted at least once into 1.25 slots a line or
			// more: the set's slot table passes 4096 entries, a page.
			seq := uint64(8)
			for l := int32(6); l < 4096; l++ {
				p.Insert(l, seq, slot)
				seq++
			}
			for n := p.Cap(); n > 0; n-- {
				p.Hit(5, seq, slot)
				seq++
			}
			s := p.set
			if err := check(p, slot); err != nil || 2*s.lineAt.Len() < pageBytes {
				t.Fatalf("%d-entry slot table: %v", s.lineAt.Len(), err)
			}
			n := len(s.lineAt.lo)
			s.lineAt.lo = s.lineAt.lo[:n:n]
		}},
		// The empty second order reads no slot entry, so its own audit cannot
		// see that they are the first order's.
		{"overlapping segments", func(p *Index, slot *Table[uint16]) { p.set.orders[1].lineAt = p.lineAt }},
		// A copy holds the very counts the set does, outside it.
		{"segment outside the set", func(p *Index, slot *Table[uint16]) { p.nodes = append([]int32(nil), p.nodes...) }},
		{"slot table of another set", func(p *Index, slot *Table[uint16]) { *slot = NewSlots(int32(slot.Len() / 2)) }},
	}
	// A high half where every id fits in the low one, or none where one may
	// not: in the caller's slot table, in the set's line table, or in one
	// order's segment of it.
	narrow := []damage{
		{"slot table with a high half", func(p *Index, slot *Table[uint16]) { slot.hi = make([]uint16, slot.Len()) }},
		{"line table with a high half", func(p *Index, slot *Table[uint16]) {
			s := p.set
			s.lineAt.hi = make([]uint16, s.lineAt.Len())
		}},
		{"segment with a high half", func(p *Index, slot *Table[uint16]) { p.lineAt.hi = make([]uint16, p.lineAt.Len()) }},
	}
	wide := []damage{
		{"slot table without a high half", func(p *Index, slot *Table[uint16]) { slot.hi = nil }},
		{"line table without a high half", func(p *Index, slot *Table[uint16]) {
			for i := range p.set.orders {
				p.set.orders[i].lineAt.hi = nil
			}
			p.set.lineAt.hi = nil
		}},
		{"segment without a high half", func(p *Index, slot *Table[uint16]) { p.lineAt.hi = nil }},
		{"short high half", func(p *Index, slot *Table[uint16]) { slot.hi = slot.hi[:len(slot.hi)-1] }},
	}
	for _, run := range []struct {
		lines int32
		cases []damage
	}{{4096, append(both, narrow...)}, {1 << 17, append(both, wide...)}} {
		for _, c := range run.cases {
			p, slot := build(run.lines)
			c.damage(p, slot)
			if check(p, slot) == nil {
				t.Errorf("%d lines: %s: damage went unnoticed", run.lines, c.name)
			}
		}
		// A copy of an order is none of its set's.
		p, slot := build(run.lines)
		if cp := *p; cp.CheckInvariants(slot, make([]bool, slot.Len())) == nil {
			t.Errorf("%d lines: a copied order went unnoticed", run.lines)
		}
	}
}

// TestIndexPast16Bits runs the model check where ids need both halves: a set
// of 2^17 lines, the full-scale L2, with ids drawn from all of them. Order 0
// fills to 60,000 lines, so its slots pass 2^16, and order 1 to 2,000; a
// seeded stream of hits (some under the current seq), inserts, renames and
// evictions then runs long enough for order 0 to compact twice where its
// slots pass 2^16. Live and Worst are compared at every step, every rank and the
// invariants every 4096 steps and at the end.
func TestIndexPast16Bits(t *testing.T) {
	const lines = 1 << 17
	steps := 64000
	if testing.Short() {
		steps = 4096
	}
	orders := New(2, lines)
	slot := newSlots(lines)
	models := [2]*model{{seqOf: map[int32]uint64{}}, {seqOf: map[int32]uint64{}}}
	rng := xrand.New(0x16b175)
	free := make([]int32, lines)
	for i := range free {
		free[i] = int32(i)
	}
	for i := len(free) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		free[i], free[j] = free[j], free[i]
	}
	var used [2][]int32
	take := func() int32 {
		l := free[len(free)-1]
		free = free[:len(free)-1]
		return l
	}
	audit := func(step int) {
		t.Helper()
		claimed := make([]bool, lines)
		for k := range orders {
			models[k].compare(t, step, &orders[k], slot)
			if err := orders[k].CheckInvariants(slot, claimed); err != nil {
				t.Fatalf("step %d: order %d: %v", step, k, err)
			}
		}
	}
	// The fill, modelled without 60,000 front inserts into a slice: each
	// insert is the most recent, so the model's order is the fill reversed.
	seq := uint64(0)
	for k, n := range []int{60000, 2000} {
		for range n {
			l := take()
			seq++
			orders[k].Insert(l, seq, slot)
			used[k] = append(used[k], l)
			models[k].seqOf[l] = seq
		}
		for i := len(used[k]) - 1; i >= 0; i-- {
			models[k].order = append(models[k].order, used[k][i])
		}
		models[k].lastSeq = seq
	}
	audit(0)
	drop := func(s []int32, i int) []int32 { s[i] = s[len(s)-1]; return s[:len(s)-1] }
	wideCompactions := 0
	for step := 1; step <= steps; step++ {
		k := 0
		if rng.Bool(0.1) {
			k = 1
		}
		p, m := &orders[k], models[k]
		free0, cap0 := p.Free(), p.Cap()
		switch u := rng.Float64(); {
		case u < 0.10:
			l := take()
			if !rng.Bool(1.0 / 3) {
				seq++
			}
			p.Insert(l, seq, slot)
			m.insert(l, seq)
			used[k] = append(used[k], l)
		case u < 0.85:
			// Mostly recent lines, so that the model's search stays short.
			i := len(used[k]) - 1 - rng.Intn(min(len(used[k]), 64))
			if rng.Bool(0.1) {
				i = rng.Intn(len(used[k]))
			}
			l := used[k][i]
			used[k] = append(drop(used[k], i), l)
			if !rng.Bool(1.0 / 8) {
				seq++
			}
			p.Hit(l, seq, slot)
			m.hit(l, seq)
		case u < 0.92:
			i := rng.Intn(len(used[k]))
			from, to := used[k][i], take()
			p.Move(from, to, slot)
			m.move(from, to)
			used[k][i] = to
			free = append(free, from)
		default:
			i := rng.Intn(len(used[k]))
			l := used[k][i]
			used[k] = drop(used[k], i)
			free = append(free, l)
			p.Evict(l, slot)
			m.evict(l)
		}
		if p.Free() > free0 && cap0 > 1<<16 {
			wideCompactions++
		}
		if int(p.Live()) != len(m.order) || p.Worst() != m.order[len(m.order)-1] {
			t.Fatalf("step %d: order %d: Live %d, Worst %d; model %d, %d", step, k, p.Live(), p.Worst(), len(m.order), m.order[len(m.order)-1])
		}
		if step%4096 == 0 {
			audit(step)
		}
	}
	audit(steps)
	if !testing.Short() && wideCompactions < 2 {
		t.Errorf("order 0 compacted %d times at a capacity above 2^16, want 2 (capacity %d)", wideCompactions, orders[0].Cap())
	}
}
