package alloc

import (
	"fmt"
	"testing"
	"testing/quick"

	"fscache/internal/xrand"
)

// testCurves builds a snapshot from per-partition hit curves expressed as
// hits-per-chunk increments; accesses default to the curve maximum plus a
// miss tail.
func testCurves(chunk int, gains [][]uint64) *Curves {
	n := 0
	for _, g := range gains {
		if len(g) > n {
			n = len(g)
		}
	}
	cv := &Curves{
		Chunk:    chunk,
		NChunk:   n,
		Hits:     make([][]uint64, len(gains)),
		Accesses: make([]uint64, len(gains)),
		Live:     make([]bool, len(gains)),
	}
	for p, g := range gains {
		h := make([]uint64, n+1)
		for c := 1; c <= n; c++ {
			h[c] = h[c-1]
			if c-1 < len(g) {
				h[c] += g[c-1]
			}
		}
		cv.Hits[p] = h
		cv.Accesses[p] = h[n] + 100
		cv.Live[p] = true
		if h[n] == 0 && len(g) == 0 {
			cv.Live[p] = false
			cv.Accesses[p] = 0
		}
	}
	return cv
}

func checkContract(t *testing.T, name string, out []int, cv *Curves, minChunks []int) {
	t.Helper()
	sum := 0
	for p, c := range out {
		if c < 0 {
			t.Fatalf("%s: negative allocation %v", name, out)
		}
		if cv.Live[p] && c < minChunks[p] {
			t.Fatalf("%s: partition %d below floor %d: %v", name, p, minChunks[p], out)
		}
		if !cv.Live[p] && c != 0 {
			t.Fatalf("%s: dead partition %d got %d chunks", name, p, c)
		}
		sum += c
	}
	if sum != cv.NChunk {
		t.Fatalf("%s: allocated %d chunks of %d: %v", name, sum, cv.NChunk, out)
	}
}

func TestMaxHitsPrefersHighUtility(t *testing.T) {
	// Partition 0 gains 100 hits/chunk for 6 chunks; partition 1 gains 10.
	cv := testCurves(64, [][]uint64{
		{100, 100, 100, 100, 100, 100},
		{10, 10, 10, 10, 10, 10},
	})
	min := []int{1, 1}
	out := MaxHits{}.Allocate(cv, min)
	checkContract(t, "maxhits", out, cv, min)
	if out[0] != 5 || out[1] != 1 {
		t.Fatalf("expected (5,1), got %v", out)
	}
}

func TestMaxHitsLookaheadCrossesPlateau(t *testing.T) {
	// Partition 0's curve is flat for 3 chunks then jumps 500 at chunk 4 —
	// one-chunk greedy would starve it; lookahead must see the span.
	cv := testCurves(64, [][]uint64{
		{0, 0, 0, 500, 0, 0, 0, 0},
		{30, 30, 30, 30, 30, 30, 30, 30},
	})
	min := []int{0, 0}
	out := MaxHits{}.Allocate(cv, min)
	checkContract(t, "maxhits", out, cv, min)
	if out[0] < 4 {
		t.Fatalf("lookahead should fund the plateau jump: %v", out)
	}
}

func TestMaxHitsSpreadsWhenNoGain(t *testing.T) {
	cv := testCurves(64, [][]uint64{
		{0, 0, 0, 0},
		{0, 0, 0, 0},
	})
	// Flat curves: no marginal gain anywhere, spread round-robin.
	cv.Live[0], cv.Live[1] = true, true
	cv.Accesses[0], cv.Accesses[1] = 100, 100
	min := []int{1, 1}
	out := MaxHits{}.Allocate(cv, min)
	checkContract(t, "maxhits", out, cv, min)
	if out[0] != 2 || out[1] != 2 {
		t.Fatalf("expected even spread (2,2), got %v", out)
	}
}

func TestMaxMinFavorsWorstOff(t *testing.T) {
	// Both gain per chunk, but partition 1 has far more accesses missing:
	// its miss ratio stays higher, so max-min should give it more.
	cv := testCurves(64, [][]uint64{
		{10, 10, 10, 10, 10, 10, 10, 10},
		{10, 10, 10, 10, 10, 10, 10, 10},
	})
	cv.Accesses[0] = 100
	cv.Accesses[1] = 10000
	min := []int{1, 1}
	out := MaxMin{}.Allocate(cv, min)
	checkContract(t, "maxmin", out, cv, min)
	if out[1] <= out[0] {
		t.Fatalf("max-min should favor the worse-off partition: %v", out)
	}
}

func TestMaxMinSkipsExhaustedCurves(t *testing.T) {
	// Partition 0 is a streaming tenant: terrible miss ratio, but no amount
	// of capacity helps (flat curve). Max-min must not pour chunks into it.
	cv := testCurves(64, [][]uint64{
		{0, 0, 0, 0, 0, 0},
		{50, 50, 50, 50, 50, 0},
	})
	cv.Accesses[0] = 10000
	min := []int{1, 1}
	out := MaxMin{}.Allocate(cv, min)
	checkContract(t, "maxmin", out, cv, min)
	if out[1] < 5 {
		t.Fatalf("helpable partition should get the capacity: %v", out)
	}
}

func TestQoSGuaranteesFloor(t *testing.T) {
	cv := testCurves(64, [][]uint64{
		{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000},
		{1, 1, 1, 1, 1, 1, 1, 1},
	})
	min := []int{1, 1}
	q := &QoS{GuaranteeLines: []int{0, 4 * 64}}
	out := q.Allocate(cv, min)
	checkContract(t, "qos", out, cv, min)
	if out[1] < 4 {
		t.Fatalf("guaranteed partition must get ≥ 4 chunks despite low utility: %v", out)
	}

	// Dead guaranteed partitions release their guarantee.
	cv.Live[1] = false
	cv.Accesses[1] = 0
	out = q.Allocate(cv, min)
	checkContract(t, "qos-dead", out, cv, min)

	// Infeasible guarantees panic.
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on infeasible guarantees")
		}
	}()
	bad := &QoS{GuaranteeLines: []int{9 * 64, 9 * 64}}
	cv.Live[1] = true
	bad.Allocate(cv, min)
}

func TestPhaseAdaptiveHoldsThenReallocates(t *testing.T) {
	o := &PhaseAdaptive{}
	cvA := testCurves(64, [][]uint64{
		{100, 100, 100, 100, 100, 100},
		{5, 5, 5, 5, 5, 5},
	})
	min := []int{1, 1}
	first := o.Allocate(cvA, min)
	checkContract(t, "phase-first", first, cvA, min)

	// Same curves again: divergence ~0, allocation must hold bit-identical.
	held := o.Allocate(cvA, min)
	for i := range held {
		if held[i] != first[i] {
			t.Fatalf("stable curves must hold targets: %v vs %v", held, first)
		}
	}

	// Flip the workload: partition 1 becomes the high-utility one.
	cvB := testCurves(64, [][]uint64{
		{5, 5, 5, 5, 5, 5},
		{100, 100, 100, 100, 100, 100},
	})
	flipped := o.Allocate(cvB, min)
	checkContract(t, "phase-flipped", flipped, cvB, min)
	if flipped[1] <= flipped[0] {
		t.Fatalf("drift past threshold must reallocate: %v", flipped)
	}
}

// Identical curves (Divergence 0) never trip the drift gate, so only the
// hold check can force a recompute: a floor raised above the held
// allocation must break the hold.
func TestPhaseAdaptiveRecomputesWhenHoldInfeasible(t *testing.T) {
	o := &PhaseAdaptive{}
	cv := testCurves(64, [][]uint64{
		{100, 100, 100, 100},
		{1, 1, 1, 1},
	})
	first := o.Allocate(cv, []int{1, 1})
	if first[1] >= 3 {
		t.Fatalf("setup: partition 1 should start below the raised floor: %v", first)
	}
	raised := []int{1, 3}
	out := o.Allocate(cv, raised)
	checkContract(t, "phase-raised-floor", out, cv, raised)
}

func TestDivergence(t *testing.T) {
	cv := testCurves(64, [][]uint64{{10, 10}, {20, 20}})
	if got := Divergence(nil, cv); got != 1 {
		t.Fatalf("nil baseline must report full divergence, got %v", got)
	}
	if got := Divergence(cv, cv); got != 0 {
		t.Fatalf("identical curves must report 0, got %v", got)
	}
	other := testCurves(64, [][]uint64{{10, 10}, {40, 0}})
	if got := Divergence(cv, other); got <= 0 {
		t.Fatalf("changed curve must report positive divergence, got %v", got)
	}
	deadNow := testCurves(64, [][]uint64{{10, 10}, {20, 20}})
	deadNow.Live[1] = false
	if got := Divergence(cv, deadNow); got != 1 {
		t.Fatalf("live-set change must report full divergence, got %v", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"utility", "maxmin", "phase"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"nope", "maxhits", "qos"} {
		if _, err := ByName(name); err == nil {
			t.Fatalf("ByName(%q) must error", name)
		}
	}
}

// contractCase is one generated objective input.
type contractCase struct {
	cv        *Curves
	minChunks []int
	guarantee []int // QoS lines per partition, feasible beside minChunks
}

// genContractCase draws parts non-decreasing hit curves over nChunk chunks —
// flat, concave, plateau-then-jump or random walk — a live mask with at
// least one live partition, and floors and guarantees whose live sum fits.
func genContractCase(rng *xrand.Rand, parts, nChunk int) contractCase {
	const chunk = 64
	c := contractCase{
		cv: &Curves{
			Chunk:    chunk,
			NChunk:   nChunk,
			Hits:     make([][]uint64, parts),
			Accesses: make([]uint64, parts),
			Live:     make([]bool, parts),
		},
		minChunks: make([]int, parts),
		guarantee: make([]int, parts),
	}
	for p := range c.cv.Hits {
		h := make([]uint64, nChunk+1)
		switch rng.Intn(4) {
		case 0: // flat
		case 1: // concave: gains shrink geometrically
			g := rng.Uint64n(1000)
			for i := 1; i <= nChunk; i++ {
				h[i] = h[i-1] + g
				g = g * (50 + rng.Uint64n(51)) / 100
			}
		case 2: // plateau, then one jump
			jump := 1 + rng.Intn(nChunk)
			for i := jump; i <= nChunk; i++ {
				h[i] = 500
			}
		case 3: // random walk
			for i := 1; i <= nChunk; i++ {
				h[i] = h[i-1] + rng.Uint64n(100)
			}
		}
		c.cv.Hits[p] = h
		c.cv.Accesses[p] = h[nChunk] + rng.Uint64n(1000)
		c.cv.Live[p] = rng.Intn(2) == 0
	}
	c.cv.Live[rng.Intn(parts)] = true
	nLive := 0
	for _, l := range c.cv.Live {
		if l {
			nLive++
		}
	}
	// Each partition's floor and guarantee stay within an nChunk/nLive
	// share, often the whole share, so the live floors always fit.
	for p := range c.minChunks {
		share := nChunk / nLive
		if rng.Intn(4) == 0 {
			share = rng.Intn(share + 1)
		}
		c.minChunks[p] = rng.Intn(share + 1)
		c.guarantee[p] = rng.Intn(share*chunk + 1)
	}
	return c
}

// genContractSeq draws a pair of same-shaped cases (1–8 partitions, 1–64
// chunks) as the sequence a, a, b, so PhaseAdaptive both holds and
// recomputes.
func genContractSeq(rng *xrand.Rand) []contractCase {
	parts, nChunk := 1+rng.Intn(8), 1+rng.Intn(64)
	a, b := genContractCase(rng, parts, nChunk), genContractCase(rng, parts, nChunk)
	return []contractCase{a, a, b}
}

// contractObjectives makes a fresh instance of every objective.
var contractObjectives = []func() Objective{
	func() Objective { return MaxHits{} },
	func() Objective { return MaxMin{} },
	func() Objective { return &QoS{} },
	func() Objective { return &PhaseAdaptive{} },
}

// runContractSeq feeds seq to obj, checking every output against the
// allocation contract and, for QoS, each live partition's guarantee.
func runContractSeq(t *testing.T, label string, obj Objective, seq []contractCase) [][]int {
	t.Helper()
	var outs [][]int
	q, isQoS := obj.(*QoS)
	for _, c := range seq {
		if isQoS {
			q.GuaranteeLines = c.guarantee
		}
		out := obj.Allocate(c.cv, c.minChunks)
		checkContract(t, fmt.Sprintf("%s %T", label, obj), out, c.cv, c.minChunks)
		for p, g := range c.guarantee {
			if isQoS && c.cv.Live[p] && out[p] < chunksFor(g, c.cv.Chunk) {
				t.Fatalf("%s: qos partition %d below its %d-line guarantee: %v", label, p, g, out)
			}
		}
		outs = append(outs, out)
	}
	return outs
}

// Every objective obeys the allocation contract on 1000 generated
// sequences.
func TestObjectiveContractSweep(t *testing.T) {
	rng := xrand.New(25)
	for i := 0; i < 1000; i++ {
		seq := genContractSeq(rng)
		for _, mk := range contractObjectives {
			runContractSeq(t, fmt.Sprintf("case %d", i), mk(), seq)
		}
	}
}

// Every objective is deterministic: two fresh instances agree on every
// step of a generated sequence, and both obey the contract.
func TestQuickAllObjectivesInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		seq := genContractSeq(xrand.New(seed))
		for _, mk := range contractObjectives {
			label := fmt.Sprintf("seed %d", seed)
			first, again := runContractSeq(t, label, mk(), seq), runContractSeq(t, label, mk(), seq)
			for s := range first {
				if !equalInts(first[s], again[s]) {
					t.Logf("seed %d: %T not deterministic at step %d: %v vs %v",
						seed, mk(), s, first[s], again[s])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
