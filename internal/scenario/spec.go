// Package scenario turns workload regimes into data: a declarative
// YAML/JSON spec (multi-client arrival processes, phase shifts, diurnal
// load curves, zipf-parameter drift, scan storms, flash crowds, live tenant
// churn and thousand-partition configurations) compiles into the same
// deterministic access streams the rest of the simulator consumes
// (internal/workload generators and internal/trace replays), so every
// adversarial regime the paper's claim must survive is a committed,
// replayable file instead of Go code.
//
// The package holds specs, their loaders and the access streams they
// compile to; internal/experiments runs a spec under FS and the baselines
// and builds the comparison tables cmd/fstables emits.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Spec is one complete scenario: a cache, a set of clients with arrival
// processes and workloads, optional phase modulations per client, and
// optional churn events that create and destroy tenants mid-run.
type Spec struct {
	// Name labels reports; defaults to the file's base name.
	Name string `json:"name"`
	// Seed roots every sampler and generator in the scenario. Equal seeds
	// compile bit-identical streams.
	Seed uint64 `json:"seed"`
	// Accesses is the total number of cache accesses the compiled stream
	// emits across all clients.
	Accesses int `json:"accesses"`
	// Cache is the simulated cache organization the runner builds.
	Cache CacheSpec `json:"cache"`
	// Warmup is the fraction of the run excluded from occupancy and miss
	// measurements (default 0.25).
	Warmup float64 `json:"warmup"`
	// Clients are the concurrent tenants; each maps to one partition.
	Clients []ClientSpec `json:"clients"`
	// Churn schedules live tenant creation and destruction.
	Churn []ChurnSpec `json:"churn"`
}

// CacheSpec is the simulated cache organization.
type CacheSpec struct {
	// Lines is the cache size in 64 B lines (power of two).
	Lines int `json:"lines"`
	// Ways is the associativity (power of two; default 16).
	Ways int `json:"ways"`
}

// ClientSpec is one tenant: an arrival process modulating when it issues
// accesses and a workload saying what it touches. Partition indices are
// assigned in declaration order (after Replicate expansion).
type ClientSpec struct {
	// Name labels the client; replicated clients get a numeric suffix.
	Name string `json:"name"`
	// Replicate expands this entry into N independent clients (each its own
	// partition, arrival sampler and address space). 0 and 1 mean one
	// client. Thousand-partition scenarios are one replicated entry.
	Replicate int `json:"replicate"`
	// Share is the client's relative capacity weight; targets apportion the
	// cache proportional to the shares of live clients (default 1).
	Share float64 `json:"share"`
	// Arrival is the inter-arrival process (default poisson, rate 1).
	Arrival ArrivalSpec `json:"arrival"`
	// Workload is what the client touches.
	Workload WorkloadSpec `json:"workload"`
	// Phases modulate rate and workload over sub-intervals of the run.
	Phases []PhaseSpec `json:"phases"`
	// Diurnal superimposes a sinusoidal load curve on the arrival rate.
	Diurnal DiurnalSpec `json:"diurnal"`
	// Class is the serving-layer SLO class ("g" guaranteed or "b" best
	// effort; default "b"). Only cmd/fsserve consumes it.
	Class string `json:"class"`
	// Start defers the client's first access to this fraction of the run;
	// clients listed in Churn are instead governed by their churn events.
	Start float64 `json:"start"`
}

// ArrivalSpec selects the inter-arrival process. All processes are scaled
// so the mean inter-arrival time is 1/Rate in virtual time units; clients
// interleave by virtual arrival time, so Rate only matters relative to the
// other clients' rates.
type ArrivalSpec struct {
	// Process is poisson, gamma or weibull (default poisson).
	Process string `json:"process"`
	// Rate is the mean arrival rate (default 1).
	Rate float64 `json:"rate"`
	// Shape is the gamma/weibull shape parameter k (default 1, which makes
	// both processes exponential). Gamma with k>1 is burst-smoothing,
	// weibull with k<1 is heavy-tailed/bursty.
	Shape float64 `json:"shape"`
}

// WorkloadSpec is what a client touches: a named profile from
// internal/workload, an inline pattern mix, or an external trace replay.
// Exactly one of Profile, Mix and Trace must be set.
type WorkloadSpec struct {
	// Profile names a benchmark model from workload.Profiles (e.g. "mcf").
	Profile string `json:"profile"`
	// Shrink divides the named profile's region sizes (as the reduced-scale
	// experiments do); ignored for Mix and Trace.
	Shrink int `json:"shrink"`
	// Mix is an inline pattern mix (kind zipf|stream|cycle|uniform).
	Mix []PatternSpec `json:"mix"`
	// MemPerKI sets instruction gaps for inline mixes (default 50).
	MemPerKI int `json:"memperki"`
	// Trace replays an external FST2 trace file through the same path,
	// cycling when exhausted. Relative paths resolve against the spec file.
	Trace string `json:"trace"`
}

// PatternSpec is one inline mix component (mirrors workload.Pattern).
type PatternSpec struct {
	Kind   string  `json:"kind"`
	Lines  int     `json:"lines"`
	Theta  float64 `json:"theta"`
	Weight float64 `json:"weight"`
}

// PhaseSpec modulates a client over [From, To) fractions of the run.
// Phases may not overlap; outside every phase the client runs its base
// configuration.
type PhaseSpec struct {
	// From and To bound the phase as fractions of the run in [0, 1].
	From float64 `json:"from"`
	To   float64 `json:"to"`
	// RateScale multiplies the arrival rate (flash crowds; default 1).
	RateScale float64 `json:"ratescale"`
	// ThetaDrift is added to every zipf component's exponent for the
	// phase's duration (zipf-parameter drift). May be negative.
	ThetaDrift float64 `json:"thetadrift"`
	// ScanLines, when positive, replaces the client's mix with a pure
	// sequential scan over this many lines (scan storm).
	ScanLines int `json:"scanlines"`
}

// DiurnalSpec modulates the arrival rate as 1 + Amplitude·sin(2π·t/Period)
// where t is run progress in [0, 1].
type DiurnalSpec struct {
	// Amplitude in [0, 1); 0 disables the curve.
	Amplitude float64 `json:"amplitude"`
	// Period as a fraction of the run (default 1: one full day per run).
	Period float64 `json:"period"`
}

// ChurnSpec schedules one tenant lifecycle event: at fraction At of the
// run, the named client is created (starts issuing accesses and receives a
// capacity share) or destroyed (stops issuing and its target drops to
// zero, so its lines wash out of the cache live).
type ChurnSpec struct {
	// At is the event position as a fraction of the run in [0, 1].
	At float64 `json:"at"`
	// Client names the ClientSpec the event applies to. Events on a
	// replicated client apply to every replica.
	Client string `json:"client"`
	// Action is create or destroy.
	Action string `json:"action"`
}

// setDefaults fills unset fields in place.
func (s *Spec) setDefaults() {
	if s.Cache.Ways == 0 {
		s.Cache.Ways = 16
	}
	if s.Warmup == 0 { //fslint:ignore style zero is the "unset" sentinel, never a computed value
		s.Warmup = 0.25
	}
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.Share == 0 { //fslint:ignore style zero is the "unset" sentinel, never a computed value
			c.Share = 1
		}
		if c.Arrival.Process == "" {
			c.Arrival.Process = "poisson"
		}
		if c.Arrival.Rate == 0 { //fslint:ignore style zero is the "unset" sentinel, never a computed value
			c.Arrival.Rate = 1
		}
		if c.Arrival.Shape == 0 { //fslint:ignore style zero is the "unset" sentinel, never a computed value
			c.Arrival.Shape = 1
		}
		if c.Class == "" {
			c.Class = "b"
		}
		if len(c.Workload.Mix) > 0 && c.Workload.MemPerKI == 0 {
			c.Workload.MemPerKI = 50
		}
		if c.Workload.Profile != "" && c.Workload.Shrink == 0 {
			c.Workload.Shrink = 1
		}
		for j := range c.Phases {
			if c.Phases[j].RateScale == 0 { //fslint:ignore style zero is the "unset" sentinel, never a computed value
				c.Phases[j].RateScale = 1
			}
		}
		if c.Diurnal.Amplitude > 0 && c.Diurnal.Period == 0 { //fslint:ignore style zero is the "unset" sentinel, never a computed value
			c.Diurnal.Period = 1
		}
	}
}

// Validate reports the first configuration error.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec without name")
	}
	if s.Accesses <= 0 {
		return fmt.Errorf("scenario %s: accesses must be positive", s.Name)
	}
	if s.Cache.Lines <= 0 || s.Cache.Lines&(s.Cache.Lines-1) != 0 {
		return fmt.Errorf("scenario %s: cache lines must be a positive power of two", s.Name)
	}
	if s.Cache.Ways <= 0 || s.Cache.Ways&(s.Cache.Ways-1) != 0 || s.Cache.Ways > s.Cache.Lines {
		return fmt.Errorf("scenario %s: cache ways must be a positive power of two not exceeding lines", s.Name)
	}
	if s.Warmup < 0 || s.Warmup > 0.9 {
		return fmt.Errorf("scenario %s: warmup %.2f out of [0, 0.9]", s.Name, s.Warmup)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("scenario %s: no clients", s.Name)
	}
	names := make(map[string]bool, len(s.Clients))
	expanded, shares := 0, 0.0 // clients after Replicate, and their shares' sum
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.Name == "" {
			return fmt.Errorf("scenario %s: client %d without name", s.Name, i)
		}
		if names[c.Name] {
			return fmt.Errorf("scenario %s: duplicate client name %q", s.Name, c.Name)
		}
		names[c.Name] = true
		if c.Replicate < 0 {
			return fmt.Errorf("scenario %s: client %s has negative replicate", s.Name, c.Name)
		}
		// Checked before Compile allocates a client apiece: no cache takes
		// more partitions than a 16-bit partition id holds (core.New).
		n := max(c.Replicate, 1)
		if n > math.MaxInt16-expanded {
			return fmt.Errorf("scenario %s: more than %d clients after replicate", s.Name, math.MaxInt16)
		}
		expanded += n
		// Written so that NaN, which fails every comparison, is rejected too.
		if !(c.Share > 0) || math.IsInf(c.Share, 0) {
			return fmt.Errorf("scenario %s: client %s needs a positive finite share", s.Name, c.Name)
		}
		shares += c.Share * float64(n)
		if c.Start < 0 || c.Start >= 1 {
			return fmt.Errorf("scenario %s: client %s start %.2f out of [0, 1)", s.Name, c.Name, c.Start)
		}
		if err := c.Arrival.validate(); err != nil {
			return fmt.Errorf("scenario %s: client %s: %w", s.Name, c.Name, err)
		}
		if err := c.Workload.validate(); err != nil {
			return fmt.Errorf("scenario %s: client %s: %w", s.Name, c.Name, err)
		}
		if c.Class != "g" && c.Class != "b" {
			return fmt.Errorf("scenario %s: client %s class %q (want g or b)", s.Name, c.Name, c.Class)
		}
		for j := range c.Phases {
			p := &c.Phases[j]
			if p.From < 0 || p.To > 1 || p.From >= p.To {
				return fmt.Errorf("scenario %s: client %s phase %d range [%.2f, %.2f) invalid", s.Name, c.Name, j, p.From, p.To)
			}
			if j > 0 && p.From < c.Phases[j-1].To {
				return fmt.Errorf("scenario %s: client %s phase %d overlaps phase %d", s.Name, c.Name, j, j-1)
			}
			if p.RateScale <= 0 {
				return fmt.Errorf("scenario %s: client %s phase %d needs a positive ratescale", s.Name, c.Name, j)
			}
			if p.ScanLines < 0 {
				return fmt.Errorf("scenario %s: client %s phase %d has negative scanlines", s.Name, c.Name, j)
			}
		}
		if d := c.Diurnal; d.Amplitude != 0 { //fslint:ignore style zero disables the curve; exact-zero is the documented sentinel
			if d.Amplitude < 0 || d.Amplitude >= 1 {
				return fmt.Errorf("scenario %s: client %s diurnal amplitude %.2f out of [0, 1)", s.Name, c.Name, d.Amplitude)
			}
			if d.Period <= 0 || d.Period > 1 {
				return fmt.Errorf("scenario %s: client %s diurnal period %.2f out of (0, 1]", s.Name, c.Name, d.Period)
			}
		}
	}
	// Targets apportions lines·share/Σshares, which must stay finite.
	if shares*float64(s.Cache.Lines) > math.MaxFloat64/2 {
		return fmt.Errorf("scenario %s: client shares are too large to apportion %d lines by", s.Name, s.Cache.Lines)
	}
	lastByClient := make(map[string]string, len(s.Churn))
	prevAt := 0.0
	for i, e := range s.Churn {
		if e.At < 0 || e.At > 1 {
			return fmt.Errorf("scenario %s: churn %d at %.2f out of [0, 1]", s.Name, i, e.At)
		}
		if e.At < prevAt {
			return fmt.Errorf("scenario %s: churn events out of order at index %d", s.Name, i)
		}
		prevAt = e.At
		if !names[e.Client] {
			return fmt.Errorf("scenario %s: churn %d names unknown client %q", s.Name, i, e.Client)
		}
		if e.Action != "create" && e.Action != "destroy" {
			return fmt.Errorf("scenario %s: churn %d action %q (want create or destroy)", s.Name, i, e.Action)
		}
		if lastByClient[e.Client] == e.Action {
			return fmt.Errorf("scenario %s: churn %d repeats %q for client %q", s.Name, i, e.Action, e.Client)
		}
		lastByClient[e.Client] = e.Action
	}
	return nil
}

func (a *ArrivalSpec) validate() error {
	switch a.Process {
	case "poisson", "gamma", "weibull":
	default:
		return fmt.Errorf("arrival process %q (want poisson, gamma or weibull)", a.Process)
	}
	if a.Rate <= 0 {
		return fmt.Errorf("arrival rate must be positive")
	}
	if a.Shape <= 0 {
		return fmt.Errorf("arrival shape must be positive")
	}
	return nil
}

func (w *WorkloadSpec) validate() error {
	set := 0
	if w.Profile != "" {
		set++
	}
	if len(w.Mix) > 0 {
		set++
	}
	if w.Trace != "" {
		set++
	}
	if set != 1 {
		return fmt.Errorf("workload needs exactly one of profile, mix or trace")
	}
	if w.Profile != "" && w.Shrink < 1 {
		return fmt.Errorf("workload shrink must be >= 1")
	}
	for i, m := range w.Mix {
		switch m.Kind {
		case "zipf", "stream", "cycle", "uniform":
		default:
			return fmt.Errorf("mix component %d kind %q (want zipf, stream, cycle or uniform)", i, m.Kind)
		}
		if m.Lines <= 0 {
			return fmt.Errorf("mix component %d needs positive lines", i)
		}
		if m.Weight <= 0 {
			return fmt.Errorf("mix component %d needs positive weight", i)
		}
		if m.Kind == "zipf" && m.Theta <= 0 {
			return fmt.Errorf("mix component %d needs positive theta", i)
		}
	}
	if len(w.Mix) > 0 && (w.MemPerKI <= 0 || w.MemPerKI > 1000) {
		return fmt.Errorf("workload memperki %d out of (0, 1000]", w.MemPerKI)
	}
	return nil
}

// Parse decodes a spec from JSON or the YAML subset (yaml.go), applying
// defaults and validating. name is used when the spec carries none
// (typically the file's base name).
func Parse(data []byte, name string) (*Spec, error) {
	trimmed := strings.TrimLeftFunc(string(data), func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	var jsonBytes []byte
	if strings.HasPrefix(trimmed, "{") {
		jsonBytes = data
	} else {
		b, err := yamlToJSON(data)
		if err != nil {
			return nil, err
		}
		jsonBytes = b
	}
	spec := &Spec{}
	dec := json.NewDecoder(strings.NewReader(string(jsonBytes)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("scenario: parse %s: %w", name, err)
	}
	if spec.Name == "" {
		spec.Name = name
	}
	spec.setDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}
