// Package difftest drives the optimized partitioned cache (internal/core)
// and the naive reference model (internal/oracle) in lockstep over randomly
// generated scenario programs, asserting per-access equivalence of hit/miss
// outcomes, victim identity, eviction futility, partition occupancies and
// scaling-factor trajectories. It is the correctness backstop for the
// replacement-pipeline optimization work: golden outputs pin a handful of
// experiment cells, the differential harness pins the semantics everywhere
// the scenario generator can reach.
//
// A scenario is fully described by a compact byte string (see FromBytes),
// which makes two consumers share one format: the seeded generator and the
// fuzz target over core.Cache (FuzzAccess), whose seed directory
// internal/core/testdata/fuzz/FuzzAccess is the one committed regression
// corpus. A divergence report prints the shrunk scenario as a seed file for
// that directory, where plain `go test ./internal/core` replays it.
package difftest

import (
	"fmt"
	"strings"

	"fscache/internal/baselines"
	"fscache/internal/cachearray"
	"fscache/internal/core"
	"fscache/internal/futility"
	"fscache/internal/oracle"
	"fscache/internal/xrand"
)

// ArrayKind enumerates the array organizations scenarios may use.
type ArrayKind int

// Array kinds. The order is part of the byte format; append only.
const (
	ArrayDirectMapped ArrayKind = iota
	ArraySetAssocXOR
	ArraySetAssocH3
	ArraySkew
	ArrayZCache
	ArrayRandom
	ArrayFullyAssoc
	numArrayKinds
)

// String implements fmt.Stringer.
func (k ArrayKind) String() string {
	switch k {
	case ArrayDirectMapped:
		return "directmapped"
	case ArraySetAssocXOR:
		return "setassoc-xor"
	case ArraySetAssocH3:
		return "setassoc-h3"
	case ArraySkew:
		return "skew"
	case ArrayZCache:
		return "zcache"
	case ArrayRandom:
		return "random"
	case ArrayFullyAssoc:
		return "fullyassoc"
	default:
		return "array(?)"
	}
}

// OpKind enumerates scenario operations.
type OpKind int

// Operation kinds.
const (
	// OpAccess performs one cache access.
	OpAccess OpKind = iota
	// OpResize installs new partition targets mid-run (weights→targets).
	OpResize
	// OpForceAlpha overrides one partition's feedback scaling factor
	// (ignored under the fixed scheme).
	OpForceAlpha
)

// Op is one scenario step.
type Op struct {
	// Kind selects the operation.
	Kind OpKind
	// Part is the accessing partition (OpAccess) or the forced partition
	// (OpForceAlpha).
	Part int
	// K is the access address offset; the address is uint64(K).
	K uint16
	// W are resize weights, one byte per partition (OpResize).
	W []uint8
	// AQ quantizes the forced scaling factor: α = 1 + AQ/2 (OpForceAlpha).
	AQ uint8
}

// Scenario is one generated program: a cache configuration plus an
// operation list. All quantities are quantized so every scenario has an
// exact byte encoding (ToBytes) and every byte string decodes to a valid
// scenario (FromBytes).
type Scenario struct {
	// LinesCode selects the cache size: 0→64, 1→128, 2→256 lines.
	LinesCode uint8
	// Array is the array organization.
	Array ArrayKind
	// ArraySeed is the byte the array (and ranker) seeds derive from.
	ArraySeed uint8
	// Ranking is the futility model.
	Ranking oracle.Ranking
	// Scheme is the Futility Scaling variant.
	Scheme oracle.SchemeKind
	// Parts is the partition count (1..4).
	Parts int
	// IntervalCode selects the feedback interval: 0→4, 1→8, 2→16.
	IntervalCode uint8
	// FeedbackBits packs feedback constants: bit 0 selects Δα (0→2, 1→4),
	// bit 1 selects AlphaMax (0→128, 1→8).
	FeedbackBits uint8
	// InitW are the initial target weights, one byte per partition.
	InitW []uint8
	// AlphaQ quantizes fixed scaling factors: α_p = 1 + AlphaQ[p]/8
	// (Fixed scheme only).
	AlphaQ []uint8
	// Ops is the program.
	Ops []Op
}

// Lines returns the cache size in lines.
func (s *Scenario) Lines() int { return 64 << (s.LinesCode % 3) }

// TotalParts returns the controller's partition count: the application
// partitions, plus Vantage's unmanaged pseudo-partition.
func (s *Scenario) TotalParts() int {
	if s.Scheme == oracle.Vantage {
		return s.Parts + 1
	}
	return s.Parts
}

// Targets returns the target vector both models install for weights w: the
// plain weight split over the whole cache for the FS schemes, or — for
// Vantage — the split over the managed region (90% of the cache, matching
// the paper's u = 0.10) with a zero target appended for the unmanaged
// pseudo-partition, the same padding internal/experiments applies.
func (s *Scenario) Targets(w []uint8) []int {
	if s.Scheme != oracle.Vantage {
		return TargetsFromWeights(w, s.Lines())
	}
	return append(TargetsFromWeights(w, s.Lines()*9/10), 0)
}

// Interval returns the feedback interval length.
func (s *Scenario) Interval() int { return 4 << (s.IntervalCode % 3) }

// Delta returns the feedback changing ratio.
func (s *Scenario) Delta() float64 {
	if s.FeedbackBits&1 != 0 {
		return 4
	}
	return 2
}

// AlphaMax returns the feedback scaling-factor cap.
func (s *Scenario) AlphaMax() float64 {
	if s.FeedbackBits&2 != 0 {
		return 8
	}
	return 128
}

// Alphas returns the fixed scheme's scaling factors.
func (s *Scenario) Alphas() []float64 {
	a := make([]float64, s.Parts)
	for p := range a {
		a[p] = 1
		if p < len(s.AlphaQ) {
			a[p] = 1 + float64(s.AlphaQ[p])/8
		}
	}
	return a
}

// Accesses counts OpAccess steps.
func (s *Scenario) Accesses() int {
	n := 0
	for _, op := range s.Ops {
		if op.Kind == OpAccess {
			n++
		}
	}
	return n
}

// String renders a one-line summary for failure reports.
func (s *Scenario) String() string {
	return fmt.Sprintf("%s/%d-lines/%s/%s/%d-parts/%d-ops(%d-accesses)",
		s.Array, s.Lines(), s.Ranking, s.Scheme, s.Parts, len(s.Ops), s.Accesses())
}

// Describe renders the full scenario, one op per line, for shrunk-reproducer
// reports.
func (s *Scenario) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s seed-byte=%d interval=%d delta=%v alphamax=%v\n",
		s, s.ArraySeed, s.Interval(), s.Delta(), s.AlphaMax())
	fmt.Fprintf(&b, "  initial targets %v (weights %v)\n", s.Targets(s.InitW), s.InitW)
	if s.Scheme == oracle.Fixed {
		fmt.Fprintf(&b, "  alphas %v\n", s.Alphas())
	}
	for i, op := range s.Ops {
		switch op.Kind {
		case OpAccess:
			fmt.Fprintf(&b, "  %3d: access part=%d addr=%d\n", i, op.Part, op.K)
		case OpResize:
			fmt.Fprintf(&b, "  %3d: resize targets=%v (weights %v)\n", i, s.Targets(op.W), op.W)
		case OpForceAlpha:
			fmt.Fprintf(&b, "  %3d: force-alpha part=%d alpha=%v\n", i, op.Part, 1+float64(op.AQ)/2)
		}
	}
	return b.String()
}

// normalize applies the configuration constraints the model space imposes,
// so every decoded scenario is runnable: coarse timestamps have no exact
// futility (the fixed scheme needs one) and no worst-line tracker (the
// fully-associative fast path needs one), and Vantage decides on exact
// normalized futility over explicit candidate sets (no coarse ranking, no
// fully-associative fast path).
func (s *Scenario) normalize() {
	if s.Parts < 1 {
		s.Parts = 1
	}
	if s.Parts > 4 {
		s.Parts = 4
	}
	if s.Ranking == oracle.CoarseLRU && s.Scheme == oracle.Fixed {
		s.Scheme = oracle.Feedback
	}
	if s.Scheme == oracle.Vantage {
		if s.Ranking == oracle.CoarseLRU {
			s.Ranking = oracle.LRU
		}
		if s.Array == ArrayFullyAssoc {
			s.Array = ArraySetAssocXOR
		}
	}
	if s.Ranking == oracle.CoarseLRU && s.Array == ArrayFullyAssoc {
		s.Ranking = oracle.LRU
	}
	for len(s.InitW) < s.Parts {
		s.InitW = append(s.InitW, 1)
	}
	s.InitW = s.InitW[:s.Parts]
	if s.Scheme == oracle.Fixed {
		for len(s.AlphaQ) < s.Parts {
			s.AlphaQ = append(s.AlphaQ, 0)
		}
		s.AlphaQ = s.AlphaQ[:s.Parts]
	} else {
		s.AlphaQ = nil
	}
	for i := range s.Ops {
		op := &s.Ops[i]
		op.Part %= s.Parts
		if op.Kind == OpResize {
			for len(op.W) < s.Parts {
				op.W = append(op.W, 1)
			}
			op.W = op.W[:s.Parts]
		}
	}
}

// TargetsFromWeights turns per-partition weight bytes into integer targets
// summing exactly to lines: each partition gets its proportional share
// (weights are offset by one so a zero byte still claims space), the last
// partition absorbs rounding.
func TargetsFromWeights(w []uint8, lines int) []int {
	total := 0
	for _, x := range w {
		total += int(x) + 1
	}
	t := make([]int, len(w))
	acc := 0
	for i := range w {
		if i == len(w)-1 {
			t[i] = lines - acc
			break
		}
		t[i] = lines * (int(w[i]) + 1) / total
		acc += t[i]
	}
	return t
}

// Byte-format op tags. Any tag below tagResize is an access whose partition
// is tag mod Parts; tags work for every Parts in 1..4 because the access
// tags are the partition number itself and the special tags are multiples
// of 4 plus the partition.
const (
	tagResize = 0xE0
	tagForce  = 0xF0
)

// headerLen is the fixed prefix of the byte format before the per-partition
// weight (and alpha) bytes.
const headerLen = 8

// FromBytes decodes a scenario from its byte encoding. Every byte string is
// a valid encoding (out-of-range fields are reduced modulo their domain;
// truncated trailing payloads are dropped), so the function doubles as the
// fuzz-input decoder. It returns nil when data is too short to carry a
// header and at least one op.
func FromBytes(data []byte) *Scenario {
	if len(data) < headerLen+1 {
		return nil
	}
	s := &Scenario{
		LinesCode:    data[0] % 3,
		Array:        ArrayKind(int(data[1]) % int(numArrayKinds)),
		ArraySeed:    data[2],
		Ranking:      oracle.Ranking(int(data[3]) % 3),
		Scheme:       oracle.SchemeKind(int(data[4]) % 3),
		Parts:        1 + int(data[5])%4,
		IntervalCode: data[6] % 3,
		FeedbackBits: data[7] & 3,
	}
	i := headerLen
	take := func(n int) []byte {
		if i+n > len(data) {
			return nil
		}
		b := data[i : i+n]
		i += n
		return b
	}
	if w := take(s.Parts); w != nil {
		s.InitW = append([]uint8(nil), w...)
	}
	if s.Scheme == oracle.Fixed {
		if a := take(s.Parts); a != nil {
			s.AlphaQ = append([]uint8(nil), a...)
		}
	}
	for i < len(data) {
		t := data[i]
		i++
		switch {
		case t < tagResize:
			kb := take(2)
			if kb == nil {
				break
			}
			s.Ops = append(s.Ops, Op{
				Kind: OpAccess,
				Part: int(t) % s.Parts,
				K:    uint16(kb[0]) | uint16(kb[1])<<8,
			})
		case t < tagForce:
			w := take(s.Parts)
			if w == nil {
				break
			}
			s.Ops = append(s.Ops, Op{Kind: OpResize, W: append([]uint8(nil), w...)})
		default:
			ab := take(1)
			if ab == nil {
				break
			}
			s.Ops = append(s.Ops, Op{Kind: OpForceAlpha, Part: int(t) % s.Parts, AQ: ab[0]})
		}
	}
	s.normalize()
	if len(s.Ops) == 0 {
		return nil
	}
	return s
}

// ToBytes encodes a normalized scenario; FromBytes(ToBytes(s)) reproduces
// s exactly. Used to persist shrunk reproducers as corpus entries.
func ToBytes(s *Scenario) []byte {
	b := make([]byte, 0, headerLen+2*s.Parts+3*len(s.Ops))
	b = append(b,
		s.LinesCode,
		uint8(s.Array),
		s.ArraySeed,
		uint8(s.Ranking),
		uint8(s.Scheme),
		uint8(s.Parts-1),
		s.IntervalCode,
		s.FeedbackBits,
	)
	b = append(b, s.InitW...)
	if s.Scheme == oracle.Fixed {
		b = append(b, s.AlphaQ...)
	}
	for _, op := range s.Ops {
		switch op.Kind {
		case OpAccess:
			b = append(b, uint8(op.Part), uint8(op.K), uint8(op.K>>8))
		case OpResize:
			b = append(b, tagResize)
			b = append(b, op.W...)
		case OpForceAlpha:
			b = append(b, tagForce|uint8(op.Part), op.AQ)
		}
	}
	return b
}

// buildArray constructs one array instance for the scenario. It is called
// twice per run — once for the system under test, once for the oracle — so
// the two sides see identical candidate streams without sharing state.
func buildArray(s *Scenario) cachearray.Array {
	lines := s.Lines()
	seed := xrand.Mix64(0xa11a7 ^ uint64(s.ArraySeed))
	switch s.Array {
	case ArrayDirectMapped:
		return cachearray.NewSetAssoc(lines, 1, cachearray.IndexXOR, seed)
	case ArraySetAssocXOR:
		return cachearray.NewSetAssoc(lines, 8, cachearray.IndexXOR, seed)
	case ArraySetAssocH3:
		return cachearray.NewSetAssoc(lines, 8, cachearray.IndexH3, seed)
	case ArraySkew:
		return cachearray.NewZCache(lines, 4, 1, seed)
	case ArrayZCache:
		return cachearray.NewZCache(lines, 4, 2, seed)
	case ArrayRandom:
		return cachearray.NewRandom(lines, 8, seed)
	case ArrayFullyAssoc:
		return cachearray.NewFullyAssoc(lines)
	default:
		panic("difftest: unknown array kind")
	}
}

// rankerKind maps the oracle's ranking enum onto the production ranker kind.
func rankerKind(r oracle.Ranking) futility.Kind {
	switch r {
	case oracle.LRU:
		return futility.LRU
	case oracle.LFU:
		return futility.LFU
	case oracle.CoarseLRU:
		return futility.CoarseLRU
	default:
		panic("difftest: unknown ranking")
	}
}

// alphasView is the slice of live scaling factors both FS schemes expose.
type alphasView interface{ Alphas() []float64 }

// buildFast constructs the system under test from a scenario. wrap, when
// non-nil, decorates the decision ranker (used by the harness self-test to
// prove injected bugs are caught).
func buildFast(s *Scenario, wrap func(futility.Ranker) futility.Ranker) (*core.Cache, alphasView, *core.FSFeedback) {
	lines := s.Lines()
	parts := s.TotalParts()
	ranker := futility.New(rankerKind(s.Ranking), lines, parts, xrand.Mix64(0x5eed^uint64(s.ArraySeed)))
	if wrap != nil {
		ranker = wrap(ranker)
	}
	var ref futility.Ranker
	if s.Ranking == oracle.CoarseLRU {
		ref = futility.NewExactLRU(lines, parts)
	}
	cfg := core.Config{
		Array:     buildArray(s),
		Ranker:    ranker,
		Reference: ref,
		Parts:     parts,
	}
	var av alphasView
	var fb *core.FSFeedback
	switch s.Scheme {
	case oracle.Fixed:
		fs := core.NewFSFixed(parts)
		fs.SetAlphas(s.Alphas())
		cfg.Scheme = fs
		av = fs
	case oracle.Vantage:
		cfg.Scheme = baselines.NewVantage(parts)
	default:
		fb = core.NewFSFeedback(parts, core.FSFeedbackConfig{
			Interval: s.Interval(),
			Delta:    s.Delta(),
			AlphaMax: s.AlphaMax(),
		})
		cfg.Scheme = fb
		av = fb
	}
	c := core.New(cfg)
	c.SetTargets(s.Targets(s.InitW))
	return c, av, fb
}

// buildOracle constructs the reference model from the same scenario.
func buildOracle(s *Scenario) *oracle.Cache {
	cfg := oracle.Config{
		Array:   buildArray(s),
		Parts:   s.TotalParts(),
		Ranking: s.Ranking,
		Scheme:  s.Scheme,
	}
	switch s.Scheme {
	case oracle.Fixed:
		cfg.Alphas = s.Alphas()
	case oracle.Vantage:
		// The oracle's Vantage parameters are its own constants, the
		// paper's configuration, as baselines.Vantage's are.
	default:
		cfg.Interval = s.Interval()
		cfg.Delta = s.Delta()
		cfg.AlphaMax = s.AlphaMax()
	}
	o := oracle.New(cfg)
	o.SetTargets(s.Targets(s.InitW))
	return o
}
