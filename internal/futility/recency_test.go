package futility

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"fscache/internal/xrand"
)

// ticketModel is the order ExactLRU had when a treap kept it: per partition,
// lines sorted by (^Seq, ticket), the ticket drawn from one counter at every
// insert and kept across hits and moves. Ascending order is increasingly
// useless, so the line at index i of M has futility (i+1)/M.
type ticketModel struct {
	parts      [][]int // per partition: lines, most recent first
	seq        map[int]uint64
	ticket     map[int]uint64
	nextTicket uint64
}

func newTicketModel(parts int) *ticketModel {
	return &ticketModel{parts: make([][]int, parts), seq: map[int]uint64{}, ticket: map[int]uint64{}}
}

func (m *ticketModel) less(a, b int) bool {
	if m.seq[a] != m.seq[b] {
		return ^m.seq[a] < ^m.seq[b]
	}
	return m.ticket[a] < m.ticket[b]
}

func (m *ticketModel) place(line, part int) {
	ls := m.parts[part]
	i := sort.Search(len(ls), func(i int) bool { return m.less(line, ls[i]) })
	ls = append(ls, 0)
	copy(ls[i+1:], ls[i:])
	ls[i] = line
	m.parts[part] = ls
}

func (m *ticketModel) remove(line, part int) {
	ls := m.parts[part]
	for i, l := range ls {
		if l == line {
			m.parts[part] = append(ls[:i], ls[i+1:]...)
			return
		}
	}
	panic("model: line not in partition")
}

func (m *ticketModel) insert(line, part int, seq uint64) {
	m.nextTicket++
	m.seq[line], m.ticket[line] = seq, m.nextTicket
	m.place(line, part)
}

func (m *ticketModel) hit(line, part int, seq uint64) {
	m.remove(line, part)
	m.seq[line] = seq
	m.place(line, part)
}

func (m *ticketModel) evict(line, part int) {
	m.remove(line, part)
	delete(m.seq, line)
	delete(m.ticket, line)
}

func (m *ticketModel) move(from, to, part int) {
	for i, l := range m.parts[part] {
		if l == from {
			m.parts[part][i] = to
		}
	}
	m.seq[to], m.ticket[to] = m.seq[from], m.ticket[from]
	delete(m.seq, from)
	delete(m.ticket, from)
}

// compare checks every query ExactLRU answers about partition part against
// the model, bit for bit.
func (m *ticketModel) compare(r *ExactLRU, part int) error {
	ls := m.parts[part]
	if got := r.Size(part); got != len(ls) {
		return fmt.Errorf("partition %d Size = %d, model %d", part, got, len(ls))
	}
	worst := -1
	if len(ls) > 0 {
		worst = ls[len(ls)-1]
	}
	if got := r.Worst(part); got != worst {
		return fmt.Errorf("partition %d Worst = %d, model %d", part, got, worst)
	}
	for i, l := range ls {
		want := float64(i+1) / float64(len(ls))
		wantRaw := uint64(want * (1 << 32))
		f, raw := r.FutilityRaw(l, part)
		if math.Float64bits(f) != math.Float64bits(want) {
			return fmt.Errorf("partition %d line %d: futility %v, model rank %d of %d = %v",
				part, l, f, i+1, len(ls), want)
		}
		if raw != wantRaw {
			return fmt.Errorf("partition %d line %d: raw %d, model %d", part, l, raw, wantRaw)
		}
	}
	return nil
}

// TestExactLRUEqualSeqOrder pins the one place where call order and key
// order disagree: lines inserted into a partition under one Seq (core's
// demotions) rank by ascending ticket, the later insert the more useless.
// Groups of 2, 3 and 52 (a full zcache candidate list), alone, with a member
// evicted while the group forms, and with the index compacting mid-group.
func TestExactLRUEqualSeqOrder(t *testing.T) {
	const older = 20 // resident lines with earlier, distinct Seqs
	for _, k := range []int{2, 3, 52} {
		for _, variant := range []string{"plain", "evict", "compact"} {
			t.Run(fmt.Sprintf("k=%d/%s", k, variant), func(t *testing.T) {
				r := NewExactLRU(older+k, 1)
				m := newTicketModel(1)
				seq := uint64(0)
				for l := 0; l < older; l++ {
					seq++
					r.OnInsert(l, 0, Context{Seq: seq})
					m.insert(l, 0, seq)
				}
				p := &r.parts[0]
				if variant == "compact" {
					// Burn slots until one is left: the group's first insert
					// takes it and the second has to compact.
					for l := 0; p.Free() > 1; l = (l + 1) % older {
						seq++
						r.OnHit(l, 0, Context{Seq: seq})
						m.hit(l, 0, seq)
					}
				}
				seq++
				compacted := false
				for i := 0; i < k; i++ {
					before := p.Free()
					r.OnInsert(older+i, 0, Context{Seq: seq})
					m.insert(older+i, 0, seq)
					compacted = compacted || p.Free() > before
					if variant == "evict" && i == (k-1)/2 {
						victim := older + i/2
						r.OnEvict(victim, 0)
						m.evict(victim, 0)
					}
					if err := m.compare(r, 0); err != nil {
						t.Fatalf("after insert %d of the group: %v", i+1, err)
					}
					if err := r.CheckInvariants(); err != nil {
						t.Fatalf("after insert %d of the group: %v", i+1, err)
					}
				}
				if variant == "compact" && !compacted {
					t.Fatal("the index did not compact inside the group")
				}
				// The group sits above every older line, last insert lowest.
				if got, want := futilityOf(r, older+k-1, 0), float64(len(m.parts[0])-older)/float64(len(m.parts[0])); got != want {
					t.Fatalf("last insert of the group has futility %v, want %v", got, want)
				}
				// A later access goes above the whole group.
				seq++
				r.OnHit(0, 0, Context{Seq: seq})
				m.hit(0, 0, seq)
				if err := m.compare(r, 0); err != nil {
					t.Fatalf("after the next access: %v", err)
				}
			})
		}
	}
}

// An OnHit under the partition's current Seq still makes its line the most
// recent (the rule ExactLRU documents; core never does this).
func TestExactLRUEqualSeqHitIsMostRecent(t *testing.T) {
	r := NewExactLRU(4, 1)
	r.OnInsert(0, 0, Context{Seq: 1})
	r.OnInsert(1, 0, Context{Seq: 2})
	r.OnInsert(2, 0, Context{Seq: 2}) // below line 1
	r.OnHit(2, 0, Context{Seq: 2})
	r.OnInsert(3, 0, Context{Seq: 2}) // below lines 1 and 2, above line 0
	for rank, line := range []int{2, 1, 3, 0} {
		if got, want := futilityOf(r, line, 0), float64(rank+1)/4; got != want {
			t.Errorf("line %d futility %v, want %v", line, got, want)
		}
	}
}

// TestExactLRUAgainstModel drives ExactLRU and the sorted-slice model with
// one seeded stream of inserts, hits, evictions and moves over four
// partitions: first with small populations, then filling the array, so the
// indexes compact many times and grow after they have been in use. It runs
// over 192 lines, and again with the same 192 spread over ranker ids of
// 65,536 lines (the largest id, 65,535, in 16 bits) and of 131,072 (ids past
// 2^16), whose slot tables have a high half.
func TestExactLRUAgainstModel(t *testing.T) {
	for _, lines := range []int{192, 1 << 16, 1 << 17} {
		t.Run(fmt.Sprint(lines), func(t *testing.T) { exactLRUAgainstModel(t, lines) })
	}
}

func exactLRUAgainstModel(t *testing.T, lines int) {
	const pool, parts = 192, 4
	steps := 40000
	if testing.Short() {
		steps = 8000
	}
	r := NewExactLRU(lines, parts)
	m := newTicketModel(parts)
	rng := xrand.New(0x1f3)
	partOf := make(map[int]int) // the partition of each used line
	var free, used []int
	for l := pool - 1; l >= 0; l-- {
		free = append(free, lines-1-(pool-1-l)*(lines/pool))
	}
	drop := func(s []int, i int) []int { s[i] = s[len(s)-1]; return s[:len(s)-1] }

	seq := uint64(0)
	compactions, growths := 0, 0
	for step := 0; step < steps; step++ {
		// Populations hover around a tenth of the pool in the first half
		// and around nine tenths in the second.
		level := pool / 10
		if step > steps/2 {
			level = pool * 9 / 10
		}
		pInsert := 0.15
		if len(used) < level {
			pInsert = 0.45
		}
		var part int
		var freeBefore, capBefore [parts]int32
		for p := range r.parts {
			freeBefore[p], capBefore[p] = r.parts[p].Free(), r.parts[p].Cap()
		}
		u := rng.Float64()
		switch {
		case len(used) == 0 || (u < pInsert && len(free) > 0):
			i := rng.Intn(len(free))
			l := free[i]
			free = drop(free, i)
			used = append(used, l)
			part = rng.Intn(parts)
			partOf[l] = part
			// A third of the inserts reuse the Seq of the previous operation:
			// an equal-Seq group whenever that one was in the same partition.
			if !rng.Bool(1.0 / 3) {
				seq++
			}
			r.OnInsert(l, part, Context{Seq: seq})
			m.insert(l, part, seq)
		case u < 0.70:
			l := used[rng.Intn(len(used))]
			part = partOf[l]
			seq++
			r.OnHit(l, part, Context{Seq: seq})
			m.hit(l, part, seq)
		case u < 0.85 && len(free) > 0:
			l := used[rng.Intn(len(used))]
			i := rng.Intn(len(free))
			to := free[i]
			part = partOf[l]
			r.OnMove(l, to, part)
			m.move(l, to, part)
			free[i] = l
			for j := range used {
				if used[j] == l {
					used[j] = to
				}
			}
			partOf[to] = part
			delete(partOf, l)
		default:
			i := rng.Intn(len(used))
			l := used[i]
			used = drop(used, i)
			free = append(free, l)
			part = partOf[l]
			delete(partOf, l)
			r.OnEvict(l, part)
			m.evict(l, part)
		}
		// Only a compaction gives slots back.
		if r.parts[part].Free() > freeBefore[part] {
			compactions++
		}
		if r.parts[part].Cap() > capBefore[part] && step > steps/2 {
			growths++
		}
		if err := m.compare(r, part); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%64 == 0 {
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < parts; p++ {
		if err := m.compare(r, p); err != nil {
			t.Fatal(err)
		}
	}
	if compactions < 8 || growths < 1 {
		t.Fatalf("stream crossed %d compactions and %d late capacity growths, want >= 8 and >= 1", compactions, growths)
	}
}

// The indexes are sized to their partitions, not to their history: 32
// partitions share 32768 lines, but partition 0 first runs at four times its
// share before its lines go back to the others. Every compaction while they
// settle keeps a capacity within [1.25·live, 3·live] that leaves 32 slots
// free, and resizes any other to 1.5·live + 32 rounded up to a word. Once
// every partition has compacted at its settled size, the slots total at most
// 1.6 per line (1600 for each partition's 1024). The same holds at 65,536 and
// 131,072 lines, where the slot table has a high half (and at 131,072 the
// line ids do too).
func TestExactLRUSlotsTrackPopulation(t *testing.T) {
	for _, lines := range []int{32768, 1 << 16, 1 << 17} {
		t.Run(fmt.Sprint(lines), func(t *testing.T) { exactLRUSlotsTrackPopulation(t, lines) })
	}
}

func exactLRUSlotsTrackPopulation(t *testing.T, lines int) {
	const parts = 32
	share := lines / parts
	r := NewExactLRU(lines, parts)
	partOf := make([]int, lines)
	seq := uint64(0)
	access := func(line, part int, insert bool) {
		seq++
		if insert {
			partOf[line] = part
			r.OnInsert(line, part, Context{Seq: seq})
		} else {
			r.OnHit(line, part, Context{Seq: seq})
		}
	}
	// Partition 0 overshoots to 4× its share and runs there until its index
	// has compacted at that size.
	for l := 0; l < 4*share; l++ {
		access(l, 0, true)
	}
	for i := 0; int(r.parts[0].Free()) < share; i++ {
		access(i%(4*share), 0, false)
	}
	// It gives back its least recently used lines, and the other partitions
	// fill to their shares with them and the lines no one has used yet.
	var spare []int
	for r.Size(0) > share {
		l := r.Worst(0)
		r.OnEvict(l, 0)
		spare = append(spare, l)
	}
	for l := 4 * share; l < lines; l++ {
		spare = append(spare, l)
	}
	for i, l := range spare {
		access(l, 1+i/share, true)
	}
	// Settling: hits until every partition has compacted at its share.
	inBand := func(c, l int32) bool { return 4*c >= 5*l && c <= 3*l && c-l >= 32 }
	var compacted [parts]bool
	for done := 0; done < parts; {
		for l := 0; l < lines; l++ {
			p := partOf[l]
			idx := &r.parts[p]
			free, before := idx.Free(), idx.Cap()
			access(l, p, false)
			if idx.Free() <= free {
				continue
			}
			c, n := idx.Cap(), idx.Live()
			if inBand(before, n) && c != before || !inBand(before, n) && (c%64 != 0 || 2*c < 3*n+64 || 2*c >= 3*n+192) {
				t.Fatalf("partition %d compacted %d lines from capacity %d into %d", p, n, before, c)
			}
			if !compacted[p] {
				compacted[p] = true
				done++
			}
		}
	}
	var slots, live int
	for p := range r.parts {
		slots, live = slots+int(r.parts[p].Cap()), live+int(r.parts[p].Live())
	}
	if live != lines || 5*slots > 8*live {
		t.Errorf("%d slots for %d lines (%.2f per line), want at most 1.6 per line", slots, live, float64(slots)/float64(live))
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// CheckInvariants must notice each kind of damage it documents.
func TestExactLRUCheckInvariantsDetects(t *testing.T) {
	build := func() *ExactLRU {
		r := NewExactLRU(8, 2)
		for l := 0; l < 6; l++ {
			r.OnInsert(l, l%2, Context{Seq: uint64(l)})
		}
		r.OnEvict(2, 0)
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("clean ranker: %v", err)
		}
		return r
	}
	for _, c := range []struct {
		name   string
		damage func(r *ExactLRU)
	}{
		// Damage inside one index (a Fenwick node, its live count) is the
		// recency package's own corruption test. A line evicted through the
		// index alone leaves a consistent ranker short of a line: core's
		// audit, which owns residency, notices that (TestCheckInvariantsDetects).
		{"slot of a line", func(r *ExactLRU) {
			s0, s4 := r.slot.At(0), r.slot.At(4)
			r.slot.Put(0, s4)
			r.slot.Put(4, s0)
		}},
		// Lines 0 and 1 both sit in slot 1 of their partitions, so after the
		// rename only the shared claimed set can tell line 0 is held twice.
		{"claimed twice", func(r *ExactLRU) { r.parts[1].Move(1, 0, &r.slot) }},
		{"orphan line", func(r *ExactLRU) { r.slot.Put(7, 1) }},
	} {
		r := build()
		c.damage(r)
		if r.CheckInvariants() == nil {
			t.Errorf("%s: damage went unnoticed", c.name)
		}
	}
}
