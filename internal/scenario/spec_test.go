package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// workedExample is the README's worked example: two tenants, one of them
// phase-shifted, plus a churn event — exercising YAML parsing, defaults
// and validation in one spec.
const workedExample = `
# Two tenants; "victim" holds a zipf working set while "scanner" turns into
# a streaming scan mid-run.
name: worked-example
seed: 42
accesses: 50000
cache:
  lines: 2048
clients:
  - name: victim
    share: 2
    class: g
    workload:
      mix:
        - kind: zipf
          lines: 1536
          theta: 1.1
          weight: 1
  - name: scanner
    arrival:
      process: gamma
      shape: 0.5
    workload:
      profile: lbm
      shrink: 8
    phases:
      - from: 0.4
        to: 0.6
        scanlines: 8192
        ratescale: 2
churn:
  - at: 0.7
    client: scanner
    action: destroy
`

func TestParseYAMLWorkedExample(t *testing.T) {
	spec, err := Parse([]byte(workedExample), "fallback")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if spec.Name != "worked-example" {
		t.Errorf("name %q, want worked-example", spec.Name)
	}
	// Defaults.
	if spec.Cache.Ways != 16 {
		t.Errorf("ways %d, want default 16", spec.Cache.Ways)
	}
	if spec.Warmup != 0.25 {
		t.Errorf("warmup %v, want default 0.25", spec.Warmup)
	}
	v, s := &spec.Clients[0], &spec.Clients[1]
	if v.Share != 2 || s.Share != 1 {
		t.Errorf("shares %v/%v, want 2/1", v.Share, s.Share)
	}
	if v.Class != "g" || s.Class != "b" {
		t.Errorf("classes %q/%q, want g/b", v.Class, s.Class)
	}
	if v.Arrival.Process != "poisson" || v.Arrival.Rate != 1 {
		t.Errorf("victim arrival defaulted to %+v, want poisson rate 1", v.Arrival)
	}
	if s.Arrival.Process != "gamma" || s.Arrival.Shape != 0.5 {
		t.Errorf("scanner arrival %+v, want gamma shape 0.5", s.Arrival)
	}
	if v.Workload.MemPerKI != 50 {
		t.Errorf("mix memperki defaulted to %d, want 50", v.Workload.MemPerKI)
	}
	if len(s.Phases) != 1 || s.Phases[0].ScanLines != 8192 {
		t.Errorf("scanner phases %+v, want one scan-storm phase", s.Phases)
	}
	if len(spec.Churn) != 1 || spec.Churn[0].Action != "destroy" {
		t.Errorf("churn %+v, want one destroy event", spec.Churn)
	}
}

func TestParseJSON(t *testing.T) {
	spec, err := Parse([]byte(`{
		"seed": 7, "accesses": 1000,
		"cache": {"lines": 256},
		"clients": [{"name": "a", "workload": {"profile": "mcf"}}]
	}`), "from-json")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if spec.Name != "from-json" {
		t.Errorf("unnamed spec got %q, want the fallback name", spec.Name)
	}
	if spec.Clients[0].Workload.Shrink != 1 {
		t.Errorf("profile shrink defaulted to %d, want 1", spec.Clients[0].Workload.Shrink)
	}
}

// TestParseRejects sweeps the validation and parse error paths; every case
// must fail with a message containing the fragment (so errors stay
// descriptive, not just non-nil).
func TestParseRejects(t *testing.T) {
	// mutate swaps one exact fragment of a minimal valid spec; replacing in
	// place (rather than appending) avoids duplicate JSON keys, whose
	// last-wins decoding would silently restore the valid value.
	const template = `{
		"seed": 1, "accesses": 1000, "cache": {"lines": 256},
		"clients": [{"name": "a", "workload": {"profile": "mcf"}}]
	}`
	const clientsField = `"clients": [{"name": "a", "workload": {"profile": "mcf"}}]`
	mutate := func(old, new string) string {
		out := strings.Replace(template, old, new, 1)
		if out == template {
			panic("mutation fragment not found: " + old)
		}
		return out
	}
	cases := []struct {
		name, in, frag string
	}{
		{"unknown field", mutate(`"seed": 1`, `"seed": 1, "bogus": 2`), "bogus"},
		{"no accesses", mutate(`"accesses": 1000`, `"accesses": 0`), "accesses"},
		{"non-pow2 lines", mutate(`"cache": {"lines": 256}`, `"cache": {"lines": 300}`), "power of two"},
		{"ways over lines", mutate(`"cache": {"lines": 256}`, `"cache": {"lines": 16, "ways": 32}`), "ways"},
		{"warmup range", mutate(`"seed": 1`, `"seed": 1, "warmup": 0.95`), "warmup"},
		{"no clients", mutate(clientsField, `"clients": []`), "no clients"},
		{"nameless client", mutate(clientsField, `"clients": [{"workload": {"profile": "mcf"}}]`), "without name"},
		{"duplicate client", mutate(clientsField, `"clients": [
			{"name": "a", "workload": {"profile": "mcf"}},
			{"name": "a", "workload": {"profile": "mcf"}}]`), "duplicate"},
		{"bad process", mutate(clientsField, `"clients": [{"name": "a",
			"arrival": {"process": "pareto"}, "workload": {"profile": "mcf"}}]`), "arrival process"},
		{"two workloads", mutate(clientsField, `"clients": [{"name": "a",
			"workload": {"profile": "mcf", "trace": "x.fst2"}}]`), "exactly one"},
		{"no workload", mutate(clientsField, `"clients": [{"name": "a"}]`), "exactly one"},
		{"bad mix kind", mutate(clientsField, `"clients": [{"name": "a",
			"workload": {"mix": [{"kind": "fractal", "lines": 8, "weight": 1}]}}]`), "kind"},
		{"zipf without theta", mutate(clientsField, `"clients": [{"name": "a",
			"workload": {"mix": [{"kind": "zipf", "lines": 8, "weight": 1}]}}]`), "theta"},
		{"bad class", mutate(clientsField, `"clients": [{"name": "a", "class": "z",
			"workload": {"profile": "mcf"}}]`), "class"},
		{"phase overlap", mutate(clientsField, `"clients": [{"name": "a",
			"workload": {"profile": "mcf"},
			"phases": [{"from": 0.1, "to": 0.5}, {"from": 0.4, "to": 0.8}]}]`), "overlaps"},
		{"phase inverted", mutate(clientsField, `"clients": [{"name": "a",
			"workload": {"profile": "mcf"},
			"phases": [{"from": 0.5, "to": 0.2}]}]`), "invalid"},
		{"diurnal amplitude", mutate(clientsField, `"clients": [{"name": "a",
			"workload": {"profile": "mcf"}, "diurnal": {"amplitude": 1.5}}]`), "amplitude"},
		{"churn unknown client", mutate(`"seed": 1`, `"seed": 1, "churn": [{"at": 0.5, "client": "ghost", "action": "create"}]`), "unknown client"},
		{"churn out of order", mutate(`"seed": 1`, `"seed": 1, "churn": [
			{"at": 0.5, "client": "a", "action": "destroy"},
			{"at": 0.2, "client": "a", "action": "create"}]`), "out of order"},
		{"churn repeated action", mutate(`"seed": 1`, `"seed": 1, "churn": [
			{"at": 0.2, "client": "a", "action": "destroy"},
			{"at": 0.5, "client": "a", "action": "destroy"}]`), "repeats"},
		{"churn bad action", mutate(`"seed": 1`, `"seed": 1, "churn": [{"at": 0.2, "client": "a", "action": "evaporate"}]`), "action"},
		{"start range", mutate(clientsField, `"clients": [{"name": "a", "start": 1.0,
			"workload": {"profile": "mcf"}}]`), "start"},
		{"share overflows the apportionment", mutate(clientsField, `"clients": [{"name": "a", "share": 1e307,
			"workload": {"profile": "mcf"}}]`), "too large"},
		{"shares overflow their sum", mutate(clientsField, `"clients": [
			{"name": "a", "share": 1e308, "workload": {"profile": "mcf"}},
			{"name": "b", "share": 1e308, "workload": {"profile": "mcf"}}]`), "too large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in), tc.name)
			if err == nil {
				t.Fatal("accepted invalid spec")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

// A spec built in code can carry shares JSON cannot spell. NaN fails every
// comparison, so a plain share <= 0 check lets it through to Targets.
func TestValidateRejectsBadShare(t *testing.T) {
	s, err := Parse([]byte(`{
		"seed": 1, "accesses": 1000, "cache": {"lines": 256},
		"clients": [{"name": "a", "workload": {"profile": "mcf"}}]
	}`), "share")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	for _, share := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		s.Clients[0].Share = share
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), "share") {
			t.Errorf("share %v: Validate = %v, want a share error", share, err)
		}
	}
}

// TestValidateBoundsExpandedClients: a client count past what a 16-bit
// partition id holds is rejected before Compile allocates a client apiece,
// counted over every entry's replicas, and an overflowing replicate too.
func TestValidateBoundsExpandedClients(t *testing.T) {
	spec := func(a, b int) string {
		return fmt.Sprintf(`{
		"seed": 1, "accesses": 1000, "cache": {"lines": 256},
		"clients": [{"name": "a", "replicate": %d, "workload": {"profile": "mcf"}},
		            {"name": "b", "replicate": %d, "workload": {"profile": "mcf"}}]
	}`, a, b)
	}
	for _, tc := range []struct {
		a, b int
		ok   bool
	}{
		{math.MaxInt16 - 1, 1, true},
		{math.MaxInt16 - 1, 0, true}, // replicate 0 is one client
		{math.MaxInt16, 1, false},
		{1, math.MaxInt16, false},
		{50000000, 1, false},
		{1, math.MaxInt, false},
	} {
		s, err := Parse([]byte(spec(tc.a, tc.b)), "replicate")
		if tc.ok != (err == nil) {
			t.Errorf("replicate %d + %d: Parse error %v, want ok=%v", tc.a, tc.b, err, tc.ok)
			continue
		}
		if err != nil {
			if !strings.Contains(err.Error(), "clients after replicate") {
				t.Errorf("replicate %d + %d: error %q does not name the client count", tc.a, tc.b, err)
			}
			continue
		}
		c, err := Compile(s, "")
		if err != nil {
			t.Fatal(err)
		}
		if c.Parts() != math.MaxInt16 {
			t.Errorf("replicate %d + %d: %d parts, want %d", tc.a, tc.b, c.Parts(), math.MaxInt16)
		}
	}
}

// TestYAMLSubset pins the hand-rolled YAML subset's edge behavior: what it
// accepts must match encoding/yaml conventions, and what it rejects must
// fail loudly instead of mis-parsing.
func TestYAMLSubset(t *testing.T) {
	t.Run("comments and quotes", func(t *testing.T) {
		spec, err := Parse([]byte(`
name: "quoted#notcomment"   # trailing comment
seed: 3
accesses: 1000
cache:
  lines: 64   # inline comment after value
clients:
  - name: a
    workload:
      profile: mcf
`), "x")
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if spec.Name != "quoted#notcomment" {
			t.Errorf("name %q: quoted # must not start a comment", spec.Name)
		}
	})
	t.Run("tabs rejected", func(t *testing.T) {
		if _, err := Parse([]byte("name: x\n\tseed: 1\n"), "x"); err == nil || !strings.Contains(err.Error(), "tab") {
			t.Fatalf("tab indentation not rejected: %v", err)
		}
	})
	t.Run("duplicate keys rejected", func(t *testing.T) {
		if _, err := Parse([]byte("seed: 1\nseed: 2\naccesses: 10\n"), "x"); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("duplicate key not rejected: %v", err)
		}
	})
	t.Run("flow syntax rejected", func(t *testing.T) {
		if _, err := Parse([]byte("clients: [a, b]\n"), "x"); err == nil {
			t.Fatal("flow-sequence scalar not rejected")
		}
	})
}
