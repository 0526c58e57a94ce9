package scenario

// Inter-arrival samplers for the three supported arrival processes. All
// three are normalized to mean inter-arrival 1/rate so the spec's Rate
// field means the same thing regardless of process; Shape then controls
// burstiness around that mean (gamma CV = 1/sqrt(k), weibull k<1 is
// heavy-tailed). Samplers draw only from xrand, so a seeded sampler is
// bit-deterministic across runs and platforms.

import (
	"math"

	"fscache/internal/xrand"
)

// sampler draws successive inter-arrival gaps in virtual time units.
type sampler interface {
	next() float64
}

// newSampler builds the sampler for a validated ArrivalSpec.
func newSampler(a ArrivalSpec, rng *xrand.Rand) sampler {
	switch a.Process {
	case "poisson":
		return &expSampler{rng: rng, scale: 1 / a.Rate}
	case "gamma":
		// Gamma(k, theta) has mean k*theta; theta = 1/(k*rate) keeps the
		// mean gap at 1/rate for every shape.
		return &gammaSampler{rng: rng, shape: a.Shape, scale: 1 / (a.Shape * a.Rate)}
	case "weibull":
		// Weibull(k, lambda) has mean lambda*Gamma(1+1/k); solve for lambda.
		return &weibullSampler{rng: rng, invShape: 1 / a.Shape, scale: 1 / (a.Rate * math.Gamma(1+1/a.Shape))}
	}
	panic("scenario: unvalidated arrival process " + a.Process)
}

// expSampler draws exponential gaps (a Poisson arrival process) by
// inversion: -ln(1-u) * scale.
type expSampler struct {
	rng   *xrand.Rand
	scale float64
}

func (s *expSampler) next() float64 {
	return -math.Log1p(-s.rng.Float64()) * s.scale
}

// gammaSampler draws Gamma(shape, scale) gaps with the Marsaglia–Tsang
// squeeze method; shapes below one use the standard u^(1/k) boost of a
// shape+1 draw.
type gammaSampler struct {
	rng   *xrand.Rand
	shape float64
	scale float64
}

func (s *gammaSampler) next() float64 {
	k, boost := s.shape, 1.0
	if k < 1 {
		// Gamma(k) = Gamma(k+1) * U^(1/k).
		u := s.rng.Float64()
		for u == 0 { //fslint:ignore style rejecting the exact-zero draw that would zero the boost
			u = s.rng.Float64()
		}
		boost = math.Pow(u, 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := s.normal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := s.rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * boost * s.scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * boost * s.scale
		}
	}
}

// normal draws a standard normal deviate by Box–Muller. The sine branch is
// discarded rather than cached: one extra uniform per draw buys a sampler
// with no hidden state beyond the RNG, which keeps resume/replay simple.
func (s *gammaSampler) normal() float64 {
	u := s.rng.Float64()
	for u == 0 { //fslint:ignore style rejecting the exact-zero draw log cannot take
		u = s.rng.Float64()
	}
	v := s.rng.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// weibullSampler draws Weibull(1/invShape, scale) gaps by inversion:
// scale * (-ln(1-u))^invShape.
type weibullSampler struct {
	rng      *xrand.Rand
	invShape float64
	scale    float64
}

func (s *weibullSampler) next() float64 {
	return s.scale * math.Pow(-math.Log1p(-s.rng.Float64()), s.invShape)
}
