package cachearray

import (
	"testing"
	"testing/quick"

	"fscache/internal/hashing"
	"fscache/internal/xrand"
)

// fill installs n distinct addresses, always choosing the first candidate
// (or a free line) as the victim, and returns the installed addresses.
func fill(a Array, n int, rng *xrand.Rand) []uint64 {
	var addrs []uint64
	for len(addrs) < n {
		addr := rng.Uint64()
		if a.Lookup(addr) >= 0 {
			continue
		}
		victim := -1
		if f, ok := a.(Freer); ok {
			victim = f.FreeLine(addr)
		}
		cands := a.Candidates(addr, nil)
		if victim < 0 {
			// Prefer an invalid candidate.
			for _, c := range cands {
				if _, valid := a.AddrOf(c); !valid {
					victim = c
					break
				}
			}
		}
		if victim < 0 {
			victim = cands[0]
		} else {
			// Re-walk for arrays that pair Candidates with Install state.
			found := false
			for _, c := range cands {
				if c == victim {
					found = true
					break
				}
			}
			if !found {
				victim = cands[0]
			}
		}
		a.Install(addr, victim, nil)
		addrs = append(addrs, addr)
	}
	return addrs
}

type namedArray struct {
	name string
	a    Array
}

// arrays returns every organization under test in a fixed order, so
// subtest order — and the draw order of any RNG shared across subtests —
// is identical on every run.
func arrays(lines int) []namedArray {
	return []namedArray{
		{"setassoc-h3-16", NewSetAssoc(lines, 16, IndexH3, 1)},
		{"setassoc-h3", NewSetAssoc(lines, 4, IndexH3, 2)},
		{"direct", NewSetAssoc(lines, 1, IndexH3, 3)},
		{"skew", NewZCache(lines, 4, 1, 4)},
		{"random", NewRandom(lines, 8, 5)},
		{"fullyassoc", NewFullyAssoc(lines)},
		{"zcache", NewZCache(lines, 4, 2, 6)},
		{"setassoc-h3-shared", NewSetAssocH3(lines, 4, hashing.NewH3(7, lines))},
	}
}

func TestLookupAfterInstall(t *testing.T) {
	for _, na := range arrays(64) {
		name, a := na.name, na.a
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(7)
			// Install half capacity; every installed address must be found
			// until it is possibly displaced — so check right after install.
			for i := 0; i < 32; i++ {
				addr := rng.Uint64()
				if a.Lookup(addr) >= 0 {
					continue
				}
				cands := a.Candidates(addr, nil)
				victim := cands[0]
				for _, c := range cands {
					if _, valid := a.AddrOf(c); !valid {
						victim = c
						break
					}
				}
				a.Install(addr, victim, nil)
				line := a.Lookup(addr)
				if line < 0 {
					t.Fatalf("address %#x not found after install", addr)
				}
				got, valid := a.AddrOf(line)
				if !valid || got != addr {
					t.Fatalf("AddrOf(%d) = %#x,%v want %#x,true", line, got, valid, addr)
				}
			}
		})
	}
}

// TestInstallLandingLine pins the rule the controller uses in place of a
// second Lookup (Array.Install): the installed address sits in the victim
// when Install reports no move and in the last move's From line otherwise.
// Victims rotate through the candidate list so a zcache is driven both
// through its roots (no relocation) and down its walk (one or two moves).
func TestInstallLandingLine(t *testing.T) {
	as := arrays(64)
	as = append(as, namedArray{"zcache-3level", NewZCache(64, 4, 3, 8)})
	for _, na := range as {
		name, a := na.name, na.a
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(9)
			var cands []int
			var moves []Move
			relocated, direct := 0, 0
			for i := 0; i < 2000; i++ {
				addr := rng.Uint64()
				if a.Lookup(addr) >= 0 {
					continue
				}
				cands = a.Candidates(addr, cands[:0])
				victim := cands[i%len(cands)]
				moves = a.Install(addr, victim, moves[:0])
				landing := victim
				if n := len(moves); n > 0 {
					landing = moves[n-1].From
					relocated++
				} else {
					direct++
				}
				if got := a.Lookup(addr); got != landing {
					t.Fatalf("install %d: victim %d with %d moves: rule says line %d, Lookup %d",
						i, victim, len(moves), landing, got)
				}
			}
			// Only a zcache walking past its roots relocates.
			z, isZ := a.(*ZCache)
			if walks := isZ && z.levels > 1; walks && (relocated == 0 || direct == 0) {
				t.Fatalf("zcache installs: %d relocating, %d direct; want both", relocated, direct)
			} else if !walks && relocated != 0 {
				t.Fatalf("%d installs reported moves on an array that never relocates", relocated)
			}
		})
	}
}

func TestLookupMissing(t *testing.T) {
	for _, na := range arrays(64) {
		if got := na.a.Lookup(0xdeadbeef); got != -1 {
			t.Errorf("%s: Lookup on empty array = %d", na.name, got)
		}
	}
}

func TestCandidateCounts(t *testing.T) {
	lines := 256
	cases := []struct {
		a    Array
		want int
	}{
		{NewSetAssoc(lines, 16, IndexH3, 1), 16},
		{NewSetAssoc(lines, 1, IndexH3, 1), 1},
		{NewZCache(lines, 4, 1, 1), 4},
		{NewRandom(lines, 16, 1), 16},
		{NewFullyAssoc(lines), lines},
	}
	for _, c := range cases {
		if got := len(c.a.Candidates(12345, nil)); got != c.want {
			t.Errorf("%T: candidates = %d, want %d", c.a, got, c.want)
		}
	}
}

func TestCandidatesContainInstallTarget(t *testing.T) {
	// Whatever victim we choose from Candidates, Install must make the
	// address findable.
	for _, na := range arrays(128) {
		name, a := na.name, na.a
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(11)
			fill(a, 128, rng) // fill to capacity (may displace; fine)
			for i := 0; i < 500; i++ {
				addr := rng.Uint64()
				if a.Lookup(addr) >= 0 {
					continue
				}
				cands := a.Candidates(addr, nil)
				victim := cands[rng.Intn(len(cands))]
				a.Install(addr, victim, nil)
				if a.Lookup(addr) < 0 {
					t.Fatalf("iteration %d: %#x unfindable after install at %d", i, addr, victim)
				}
			}
		})
	}
}

func TestSetAssocVictimOutsideSetPanics(t *testing.T) {
	a := NewSetAssoc(64, 4, IndexH3, 1)
	set := a.Candidates(1, nil)[0] / 4
	other := (set + 1) % (64 / 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a.Install(1, other*4, nil)
}

func TestRandomCandidatesDistinct(t *testing.T) {
	a := NewRandom(64, 16, 9)
	for i := 0; i < 200; i++ {
		cands := a.Candidates(uint64(i), nil)
		seen := map[int]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("duplicate candidate %d", c)
			}
			if c < 0 || c >= 64 {
				t.Fatalf("candidate %d out of range", c)
			}
			seen[c] = true
		}
	}
}

func TestRandomCandidatesUniform(t *testing.T) {
	// The Random array realizes the Uniformity Assumption; its candidate
	// marginal distribution must be uniform over lines.
	a := NewRandom(128, 8, 13)
	counts := make([]int, 128)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, c := range a.Candidates(uint64(i), nil) {
			counts[c]++
		}
	}
	expected := float64(trials*8) / 128
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 127 dof, 99.9th percentile ≈ 181.
	if chi2 > 190 {
		t.Fatalf("candidate distribution non-uniform: chi2 = %.1f", chi2)
	}
}

func TestFreeLine(t *testing.T) {
	for _, a := range []Array{NewRandom(8, 2, 1), NewFullyAssoc(8)} {
		f := a.(Freer)
		installed := 0
		for {
			line := f.FreeLine(uint64(installed))
			if line < 0 {
				break
			}
			a.Install(uint64(1000+installed), line, nil)
			installed++
			if installed > 8 {
				t.Fatalf("%T: more free lines than capacity", a)
			}
		}
		if installed != 8 {
			t.Fatalf("%T: freelist handed out %d lines, want 8", a, installed)
		}
		for i := 0; i < 8; i++ {
			if a.Lookup(uint64(1000+i)) < 0 {
				t.Fatalf("%T: address %d lost", a, 1000+i)
			}
		}
	}
}

func TestZCacheWalkSize(t *testing.T) {
	// Z4/52: 4 ways, 3 levels → up to 52 candidates.
	z := NewZCache(1024, 4, 3, 17)
	if z.MaxCandidates() != 52 {
		t.Fatalf("MaxCandidates = %d, want 52", z.MaxCandidates())
	}
	rng := xrand.New(3)
	fill(z, 1024, rng)
	total, n := 0, 0
	for i := 0; i < 100; i++ {
		c := z.Candidates(rng.Uint64(), nil)
		if len(c) > 52 {
			t.Fatalf("walk produced %d candidates, cap 52", len(c))
		}
		total += len(c)
		n++
	}
	// With dedup some walks are a little short, but on a full cache the
	// average should be near the maximum.
	if avg := float64(total) / float64(n); avg < 40 {
		t.Fatalf("average walk size %.1f, want near 52", avg)
	}
}

func TestZCacheRelocationPreservesContents(t *testing.T) {
	z := NewZCache(256, 4, 3, 23)
	rng := xrand.New(29)
	resident := map[uint64]bool{}
	var order []uint64
	for i := 0; i < 5000; i++ {
		addr := rng.Uint64() % 4096
		if z.Lookup(addr) >= 0 {
			continue
		}
		cands := z.Candidates(addr, nil)
		victim := cands[rng.Intn(len(cands))]
		evicted, evictedValid := z.AddrOf(victim)
		moves := z.Install(addr, victim, nil)
		for _, m := range moves {
			if m.From < 0 || m.From >= 256 || m.To < 0 || m.To >= 256 {
				t.Fatalf("move out of range: %+v", m)
			}
		}
		if evictedValid {
			delete(resident, evicted)
		}
		resident[addr] = true
		order = append(order, addr)
		// Every resident address must remain findable after relocation.
		// Walk the insertion log rather than the resident map so the
		// check visits addresses in a reproducible order.
		if i%50 == 0 {
			for _, a := range order {
				if resident[a] && z.Lookup(a) < 0 {
					t.Fatalf("iteration %d: resident %#x lost after relocations", i, a)
				}
			}
		}
	}
	if len(resident) > 256 {
		t.Fatalf("resident set %d exceeds capacity", len(resident))
	}
}

// quadraticWalk is the replacement walk as Candidates performed it before the
// line bitmap: a position is skipped when a scan of the nodes so far finds
// it. It reads z and leaves it alone.
func quadraticWalk(z *ZCache, addr uint64) []walkNode {
	var nodes []walkNode
	sum, bits := make([]uint64, z.fam.Words()), z.fam.LaneBits()
	pos := func(w int, a uint64) int {
		z.fam.Sum(a, sum)
		per := int(64 / bits)
		return w*z.sets + int(sum[w/per]>>(uint(w%per)*bits))&(z.sets-1)
	}
	seen := func(line int) bool {
		for _, n := range nodes {
			if n.line == line {
				return true
			}
		}
		return false
	}
	for w := 0; w < z.ways; w++ {
		if p := pos(w, addr); !seen(p) {
			nodes = append(nodes, walkNode{line: p, parent: -1})
		}
	}
	levelStart, levelEnd := 0, len(nodes)
	for l := 1; l < z.levels; l++ {
		for i := levelStart; i < levelEnd; i++ {
			line := nodes[i].line
			if !z.valid.get(line) {
				continue
			}
			for w := 0; w < z.ways; w++ {
				if p := pos(w, z.addrs[line]); p != line && !seen(p) {
					nodes = append(nodes, walkNode{line: p, parent: i})
				}
			}
		}
		levelStart, levelEnd = levelEnd, len(nodes)
	}
	return nodes
}

func TestZCacheWalkMatchesQuadraticDedup(t *testing.T) {
	for _, cfg := range []struct{ lines, ways, levels int }{
		{1024, 4, 3}, // Z4/52
		{64, 4, 3},   // Z4/52 where most walks meet themselves
		{256, 2, 2},
		{512, 8, 2},
	} {
		for _, fillTo := range []float64{0, 0.3, 0.9, 1} {
			z := NewZCache(cfg.lines, cfg.ways, cfg.levels, 31)
			rng := xrand.New(37)
			fill(z, int(fillTo*float64(cfg.lines)), rng)
			free, short := 0, 0
			for i := 0; i < 400; i++ {
				addr := rng.Uint64()
				if z.Lookup(addr) >= 0 {
					continue
				}
				want := quadraticWalk(z, addr)
				cands := z.Candidates(addr, nil)
				if len(z.nodes) != len(want) || len(cands) != len(want) {
					t.Fatalf("%+v fill %v: walk of %d nodes, %d candidates, want %d", cfg, fillTo, len(z.nodes), len(cands), len(want))
				}
				for j, n := range want {
					if z.nodes[j] != n || cands[j] != n.line {
						t.Fatalf("%+v fill %v: node %d = %+v (candidate %d), want %+v", cfg, fillTo, j, z.nodes[j], cands[j], n)
					}
					if !z.valid.get(n.line) {
						free++
					}
				}
				if len(want) < z.MaxCandidates() {
					short++
				}
				for w, word := range z.seen {
					if word != 0 {
						t.Fatalf("%+v fill %v: bitmap word %d = %#x after the walk", cfg, fillTo, w, word)
					}
				}
				// The relocations follow the parents back to a root.
				v := rng.Intn(len(want))
				var moves []Move
				for cur := v; want[cur].parent >= 0; cur = want[cur].parent {
					moves = append(moves, Move{From: want[want[cur].parent].line, To: want[cur].line})
				}
				got := z.Install(addr, want[v].line, nil)
				if len(got) != len(moves) {
					t.Fatalf("%+v fill %v: %d moves, want %d", cfg, fillTo, len(got), len(moves))
				}
				for j := range moves {
					if got[j] != moves[j] {
						t.Fatalf("%+v fill %v: move %d = %+v, want %+v", cfg, fillTo, j, got[j], moves[j])
					}
				}
			}
			if fillTo < 1 && free == 0 {
				t.Errorf("%+v fill %v: no walk met a free line", cfg, fillTo)
			}
			if short == 0 {
				t.Errorf("%+v fill %v: no walk was cut short by a duplicate or a free line", cfg, fillTo)
			}
		}
	}
}

func TestZCacheInstallWithoutWalkPanics(t *testing.T) {
	z := NewZCache(64, 4, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	z.Install(42, 0, nil)
}

func TestZCacheVictimNotCandidatePanics(t *testing.T) {
	z := NewZCache(64, 4, 1, 1)
	cands := z.Candidates(42, nil)
	bad := 0
	for isCand := true; isCand; bad++ {
		isCand = false
		for _, c := range cands {
			if c == bad {
				isCand = true
				break
			}
		}
	}
	bad--
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	z.Install(42, bad, nil)
}

func TestConstructorValidation(t *testing.T) {
	cases := []func(){
		func() { NewSetAssoc(100, 4, IndexH3, 1) }, // non-pow2 lines
		func() { NewSetAssoc(64, 3, IndexH3, 1) },  // non-pow2 ways
		func() { NewSetAssoc(4, 8, IndexH3, 1) },   // ways > lines
		func() { NewSetAssoc(64, 4, 0, 1) },        // unknown index kind
		func() { NewZCache(64, 128, 1, 1) },        // ways > lines
		func() { NewRandom(0, 1, 1) },
		func() { NewRandom(16, 0, 1) },
		func() { NewRandom(16, 32, 1) },
		func() { NewFullyAssoc(0) },
		func() { NewZCache(64, 1, 2, 1) },
		func() { NewZCache(64, 4, 0, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: on any array, installing a fresh address at any reported
// candidate keeps the number of valid lines ≤ capacity and keeps the new
// address resident.
func TestQuickInstallInvariants(t *testing.T) {
	f := func(seed uint64, picks []uint8) bool {
		z := NewZCache(64, 4, 2, seed)
		rng := xrand.New(seed ^ 0xabcdef)
		for _, p := range picks {
			addr := rng.Uint64() % 512
			if z.Lookup(addr) >= 0 {
				continue
			}
			cands := z.Candidates(addr, nil)
			victim := cands[int(p)%len(cands)]
			z.Install(addr, victim, nil)
			if z.Lookup(addr) < 0 {
				return false
			}
		}
		valid := 0
		for i := 0; i < z.Lines(); i++ {
			if _, ok := z.AddrOf(i); ok {
				valid++
			}
		}
		return valid <= z.Lines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestOneLevelZCacheIsSkew pins a one-level zcache as the skew-associative
// array: an address's candidates are its own position in each way,
// w·sets + H3_w(a), in way order, with way w's function seeded as the zcache
// seeds it, and Install relocates nothing.
func TestOneLevelZCacheIsSkew(t *testing.T) {
	const seed = 9
	// The geometries cover one packed hash word and several, and 16-bit
	// lanes (up to 2^16 sets) and 32-bit ones.
	for _, g := range []struct{ lines, ways int }{{256, 4}, {1024, 8}, {4096, 16}, {1 << 18, 4}, {1 << 18, 2}, {1 << 19, 4}} {
		sets := g.lines / g.ways
		z := NewZCache(g.lines, g.ways, 1, seed)
		fns := make([]*hashing.H3, g.ways)
		for w := range fns {
			fns[w] = hashing.NewH3(xrand.Mix64(seed^uint64(w+1)), sets)
		}
		rng := xrand.New(3)
		for i := 0; i < min(4*g.lines, 4096); i++ {
			a := rng.Uint64()
			cands := z.Candidates(a, nil)
			if len(cands) != g.ways {
				t.Fatalf("%+v %#x: %d candidates, want %d", g, a, len(cands), g.ways)
			}
			for w, c := range cands {
				if want := w*sets + int(fns[w].Hash(a)); c != want {
					t.Fatalf("%+v %#x: candidate %d is line %d, want %d", g, a, w, c, want)
				}
			}
			if moves := z.Install(a, cands[rng.Intn(g.ways)], nil); len(moves) != 0 {
				t.Fatalf("%+v %#x: one-level Install relocated %v", g, a, moves)
			}
			if z.Lookup(a) < 0 {
				t.Fatalf("%+v %#x: not found after Install", g, a)
			}
		}
	}
}
