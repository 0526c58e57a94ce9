package difftest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fscache/internal/oracle"
	"fscache/internal/trace"
)

// regenCorpus rewrites core's FuzzAccess seeds, the committed regression
// corpus, from the deterministic seed sweep. Run
// `go test ./internal/difftest -run TestCorpus -regen-corpus` after a
// deliberate semantic change; the diff is then reviewable like a golden.
var regenCorpus = flag.Bool("regen-corpus", false, "regenerate the committed scenario corpus")

// scenarioBudget returns how many random scenarios the main differential
// test runs: the acceptance budget normally, a CI-race-friendly slice under
// -short.
func scenarioBudget() int {
	if testing.Short() {
		return 200
	}
	return 1000
}

// failReport renders everything needed to reproduce and debug a divergence:
// the seed, the one-line divergence, the shrunk program and the program as a
// FuzzAccess seed file, which `go test ./internal/core` replays once saved
// under fuzzSeedDir.
func failReport(seed uint64, d *Divergence, s *Scenario, opt Options) string {
	shrunk, sd := Shrink(s, opt)
	if sd == nil {
		// Shrinking must preserve failure; if it didn't, report the original.
		shrunk, sd = s, d
	}
	return fmt.Sprintf("seed %d: %v\nshrunk to %d ops (%d accesses): %v\n%sseed file for internal/core/testdata/fuzz/FuzzAccess:\n%s",
		seed, d, len(shrunk.Ops), shrunk.Accesses(), sd, shrunk.Describe(), fuzzSeed(shrunk))
}

// TestDifferential is the core acceptance test: a seeded sweep of random
// scenarios, each run in lockstep against the oracle with periodic
// invariant audits, zero divergence tolerated.
func TestDifferential(t *testing.T) {
	n := scenarioBudget()
	for seed := uint64(0); seed < uint64(n); seed++ {
		s := Generate(seed)
		if d := RunScenario(s, Options{}); d != nil {
			t.Fatalf("%s", failReport(seed, d, s, Options{}))
		}
	}
}

// TestDifferentialCoverage sanity-checks the generator: the sweep must
// actually reach every array kind, ranking and scheme, and most scenarios
// must evict (a sweep of cold misses would prove nothing about
// replacement).
func TestDifferentialCoverage(t *testing.T) {
	arrays := map[ArrayKind]int{}
	rankings := map[oracle.Ranking]int{}
	schemes := map[oracle.SchemeKind]int{}
	n := scenarioBudget()
	for seed := uint64(0); seed < uint64(n); seed++ {
		s := Generate(seed)
		arrays[s.Array]++
		rankings[s.Ranking]++
		schemes[s.Scheme]++
	}
	for k := ArrayKind(0); k < numArrayKinds; k++ {
		if arrays[k] == 0 {
			t.Errorf("generator never produced array kind %v", k)
		}
	}
	for _, r := range []oracle.Ranking{oracle.LRU, oracle.LFU, oracle.CoarseLRU} {
		if rankings[r] == 0 {
			t.Errorf("generator never produced ranking %v", r)
		}
	}
	for _, sc := range []oracle.SchemeKind{oracle.Fixed, oracle.Feedback, oracle.Vantage} {
		if schemes[sc] == 0 {
			t.Errorf("generator never produced scheme %v", sc)
		}
	}
}

// TestVantageScenariosDemote pins the generator's demotion-heavy bias: the
// Vantage scenarios it produces must actually drive substantial demotion
// traffic, otherwise the differential harness would never exercise the
// demotion accounting it is supposed to lock.
func TestVantageScenariosDemote(t *testing.T) {
	var demos, forced uint64
	seen := 0
	for seed := uint64(0); seen < 50 && seed < 2000; seed++ {
		s := Generate(seed)
		if s.Scheme != oracle.Vantage {
			continue
		}
		seen++
		c, _, _ := buildFast(s, nil)
		for _, op := range s.Ops {
			switch op.Kind {
			case OpResize:
				c.SetTargets(s.Targets(op.W))
			case OpAccess:
				c.Access(uint64(op.K), op.Part, trace.NoNextUse)
			}
		}
		for p := 0; p < c.Parts(); p++ {
			demos += c.Stats(p).Demotions
			forced += c.Stats(p).ForcedEvict
		}
	}
	if seen < 50 {
		t.Fatalf("only %d Vantage scenarios in 2000 seeds", seen)
	}
	if demos < 500 {
		t.Fatalf("50 Vantage scenarios produced only %d demotions; generator bias lost", demos)
	}
	t.Logf("50 Vantage scenarios: %d demotions, %d forced evictions", demos, forced)
}

// TestInjectedBugCaught proves the harness end to end: with a deliberate
// off-by-one injected into the decision ranker, the differential run must
// detect a divergence quickly and shrink it to a minimal reproducer of at
// most 20 accesses.
func TestInjectedBugCaught(t *testing.T) {
	opt := Options{WrapRanker: MutateOffByOne}
	caught := 0
	for seed := uint64(0); seed < 50; seed++ {
		s := Generate(seed)
		d := RunScenario(s, opt)
		if d == nil {
			continue
		}
		caught++
		shrunk, sd := Shrink(s, opt)
		if sd == nil {
			t.Fatalf("seed %d: shrinking lost the divergence", seed)
		}
		if acc := shrunk.Accesses(); acc > 20 {
			t.Errorf("seed %d: shrunk reproducer still has %d accesses (> 20):\n%s",
				seed, acc, shrunk.Describe())
		}
	}
	// Not every scenario can see this defect: the feedback scheme's victim
	// choice is argmax α_i·raw_i, which is invariant under a uniform raw
	// shift when all scaling factors are equal — so coarse-timestamp
	// scenarios whose controller never moves α are genuinely blind to the
	// Raw half of the mutation (and have no exact Futility to betray the
	// other half). A majority of scenarios must still catch it.
	if caught < 30 {
		t.Fatalf("injected off-by-one caught in only %d/50 scenarios", caught)
	}
}

// TestScenarioCodecRoundTrip pins the byte format: encoding a normalized
// scenario and decoding it back must reproduce it exactly, and every
// generated scenario must survive the trip.
func TestScenarioCodecRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		s := Generate(seed)
		b := ToBytes(s)
		got := FromBytes(b)
		if got == nil {
			t.Fatalf("seed %d: encoded scenario failed to decode", seed)
		}
		if g, w := got.String(), s.String(); g != w {
			t.Fatalf("seed %d: round trip changed scenario: %s != %s", seed, g, w)
		}
		if g, w := got.Describe(), s.Describe(); g != w {
			t.Fatalf("seed %d: round trip changed program:\n%s\nvs\n%s", seed, g, w)
		}
	}
}

// TestFromBytesTotal pins the decoder's robustness: arbitrary byte strings
// either decode to a runnable scenario or to nil, never panic, and whatever
// decodes must run without diverging (the fuzz harness relies on this).
func TestFromBytesTotal(t *testing.T) {
	data := []byte{7, 13, 42, 2, 1, 3, 1, 2, 9, 9, 9, 9, 0xE0, 1, 0xF2, 200, 3, 7}
	for cut := 0; cut <= len(data); cut++ {
		s := FromBytes(data[:cut])
		if s == nil {
			continue
		}
		if d := RunScenario(s, Options{}); d != nil {
			t.Fatalf("cut %d: decoded scenario diverges: %v", cut, d)
		}
	}
}

// fuzzSeedDir is core's FuzzAccess seed directory, the committed regression
// corpus: one `go test fuzz v1` file per scenario, each holding its ToBytes.
const fuzzSeedDir = "../core/testdata/fuzz/FuzzAccess"

// fuzzSeed renders s as a FuzzAccess seed file.
func fuzzSeed(s *Scenario) string {
	return "go test fuzz v1\n[]byte(" + strconv.Quote(string(ToBytes(s))) + ")\n"
}

// parseFuzzSeed reads back a one-[]byte seed file: fuzzSeed's output, or a
// crasher the fuzzer wrote.
func parseFuzzSeed(file string) ([]byte, error) {
	body, ok := strings.CutPrefix(strings.TrimSpace(file), "go test fuzz v1\n[]byte(")
	if quoted, closed := strings.CutSuffix(body, ")"); ok && closed {
		data, err := strconv.Unquote(quoted)
		return []byte(data), err
	}
	return nil, fmt.Errorf("not a one-[]byte go test fuzz v1 file")
}

// corpusSweep deterministically picks one generated scenario per
// (array, ranking, scheme) combination the generator can produce, by
// sweeping seeds in order. These pin the full configuration matrix in the
// committed corpus.
func corpusSweep() map[string]*Scenario {
	picked := map[string]*Scenario{}
	for seed := uint64(0); seed < 4096; seed++ {
		s := Generate(seed)
		key := fmt.Sprintf("%v-%v-%v", s.Array, s.Ranking, s.Scheme)
		if _, ok := picked[key]; !ok {
			picked[key] = s
		}
	}
	return picked
}

// TestCorpus replays every committed seed, the fuzzer's saved crashers too:
// each must decode and run with zero divergence. FuzzAccess skips an input
// that does not decode, so a broken seed would replay there as a silent
// pass. With -regen-corpus it first rewrites the sweep's seeds, leaving
// other files be.
func TestCorpus(t *testing.T) {
	if *regenCorpus {
		picked := corpusSweep()
		keys := make([]string, 0, len(picked))
		for key := range picked {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		if err := os.MkdirAll(fuzzSeedDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if err := os.WriteFile(filepath.Join(fuzzSeedDir, key), []byte(fuzzSeed(picked[key])), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(fuzzSeedDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		file, err := os.ReadFile(filepath.Join(fuzzSeedDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data, err := parseFuzzSeed(string(file))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		s := FromBytes(data)
		if s == nil {
			t.Errorf("%s: %d bytes do not decode to a scenario", e.Name(), len(data))
			continue
		}
		if d := RunScenario(s, Options{}); d != nil {
			t.Errorf("%s: %v\n%s", e.Name(), d, s.Describe())
		}
	}
	if len(entries) == 0 {
		t.Fatal("corpus is empty")
	}
}
