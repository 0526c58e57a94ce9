package main

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"fscache/internal/futility"
)

func TestSplitList(t *testing.T) {
	cases := map[string][]string{
		"a,b,c":    {"a", "b", "c"},
		" a , b ":  {"a", "b"},
		"a,,b":     {"a", "b"},
		"":         nil,
		"gromacs":  {"gromacs"},
		",,,":      nil,
		"x, y ,,z": {"x", "y", "z"},
	}
	for in, want := range cases {
		if got := splitList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("splitList(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseRank(t *testing.T) {
	for in, want := range map[string]futility.Kind{
		"coarse-lru": futility.CoarseLRU,
		"lru":        futility.LRU,
		"lfu":        futility.LFU,
		"opt":        futility.OPT,
	} {
		got, err := parseRank(in)
		if err != nil || got != want {
			t.Errorf("parseRank(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseRank("belady"); err == nil {
		t.Error("unknown rank accepted")
	}
}

func TestParseTargetsEqual(t *testing.T) {
	for _, c := range []struct {
		parts, lines int
		want         []int
	}{
		{4, 100, []int{25, 25, 25, 25}},
		{3, 4096, []int{1366, 1365, 1365}}, // no line lost to truncation
	} {
		got, err := parseTargets("equal", c.parts, c.lines)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("equal over %d threads, %d lines: targets = %v, want %v", c.parts, c.lines, got, c.want)
		}
	}
}

func TestParseTargetsExplicit(t *testing.T) {
	got, err := parseTargets("10,20,30", 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{10, 20, 30}) {
		t.Fatalf("targets = %v", got)
	}
}

func TestParseTargetsTrailingEqual(t *testing.T) {
	got, err := parseTargets("40,equal", 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{40, 30, 30}) {
		t.Fatalf("targets = %v", got)
	}
	if got, _ := parseTargets("40,equal", 4, 100); !reflect.DeepEqual(got, []int{40, 20, 20, 20}) {
		t.Fatalf("targets = %v", got)
	}
	if got, _ := parseTargets("41,equal", 4, 100); !reflect.DeepEqual(got, []int{41, 20, 20, 19}) {
		t.Fatalf("remainder lost: targets = %v", got)
	}
}

func TestParseTargetsErrors(t *testing.T) {
	cases := []struct {
		spec  string
		parts int
	}{
		{"10,20", 3},       // too few
		{"10,20,30,40", 3}, // too many
		{"equal,10", 2},    // equal not last
		{"abc", 1},         // not a number
		{"-5", 1},          // negative
		{"200,equal", 2},   // over capacity
		{"10,20,equal", 2}, // equal with no remaining threads
	}
	for _, c := range cases {
		if _, err := parseTargets(c.spec, c.parts, 100); err == nil {
			t.Errorf("parseTargets(%q, %d) accepted", c.spec, c.parts)
		}
	}
}

func TestRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-lines", "1024", "-accesses", "3000", "-benchmarks", "mcf,lbm,gromacs"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	for _, want := range []string{
		"scheme=fs array=setassoc-16 rank=coarse-lru lines=1024 (64 KB) threads=3 seed=1",
		"  0 mcf                342",
		"  2 gromacs            341",
		"throughput (sum IPC):",
		"fs scaling factors: [",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("no %q in output:\n%s", want, stdout.String())
		}
	}
}

// TestDefaultOutput pins what fsim prints with no arguments, byte for byte.
// After a deliberate behaviour change, regenerate it with
//
//	go run ./cmd/fsim > cmd/fsim/testdata/default.golden
func TestDefaultOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	want, err := os.ReadFile("testdata/default.golden")
	if err != nil {
		t.Fatal(err)
	}
	if stdout.String() != string(want) {
		t.Fatalf("output diverged from testdata/default.golden.\n--- got ---\n%s\n--- want ---\n%s", stdout.String(), want)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/array-*.golden from the current output")

// TestArrayOutputs pins fsim's full report for every -array value at a small
// size, byte for byte, against testdata/array-<name>.golden (a "/" in the
// name becomes "-"). After a deliberate behaviour change, regenerate them with
//
//	go test ./cmd/fsim -run TestArrayOutputs -update
func TestArrayOutputs(t *testing.T) {
	for _, array := range []string{"setassoc-16", "random-16", "fullyassoc", "directmapped", "zcache-z4/52", "skew-8"} {
		t.Run(array, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-array", array, "-lines", "4096", "-accesses", "20000", "-benchmarks", "gromacs,omnetpp,astar"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			golden := "testdata/array-" + strings.ReplaceAll(array, "/", "-") + ".golden"
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if stdout.String() != string(want) {
				t.Fatalf("output diverged from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, stdout.String(), want)
			}
		})
	}
}

// Every usage error exits 2 with its message and prints no report. A cache
// Build cannot assemble is one too, reported by CacheSpec.Check before any
// trace is built.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a line of stderr
	}{
		{[]string{"-rank", "belady"}, `fsim: unknown ranking "belady"`},
		{[]string{"-benchmarks", ""}, "fsim: no benchmarks given"},
		{[]string{"-benchmarks", "mcf,nope"}, `fsim: workload: unknown benchmark "nope"`},
		{[]string{"-targets", "1,2,3"}, `fsim: targets "1,2,3": want 4 numbers`},
		{[]string{"-l1", "256"}, "flag provided but not defined: -l1"},
		{[]string{"-scheme", "bogus"}, `fsim: unknown scheme "bogus"`},
		{[]string{"-array", "bogus"}, `fsim: unknown array "bogus"`},
		{[]string{"-lines", "1000"}, "fsim: array setassoc-16 needs a power-of-two line count, not 1000"},
		{[]string{"-lines", "8"}, "fsim: array setassoc-16 needs at least 16 lines, not 8"},
		{[]string{"-array", "random-16", "-lines", "0", "-targets", "0,0,0,0"}, "fsim: array random-16 needs at least 16 lines, not 0"},
		{[]string{"-array", "zcache-z4/52", "-lines", "3000"}, "fsim: array zcache-z4/52 needs a power-of-two line count, not 3000"},
		{[]string{"-scheme", "waypart", "-array", "skew-8"}, "fsim: waypart requires the 16-way set-associative array"},
		{[]string{"-scheme", "vantage", "-array", "fullyassoc"}, "fsim: array fullyassoc needs scheme fs, fs-fixed, pf, fullassoc or unmanaged, not vantage"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2\n%s", tc.args, code, stderr.String())
			continue
		}
		if !strings.HasPrefix(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q, want it to start %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed a report:\n%s", tc.args, stdout.String())
		}
	}
}

func TestFmtAlphas(t *testing.T) {
	if got := fmtAlphas([]float64{1, 2.5}); got != "[1 2.5]" {
		t.Errorf("fmtAlphas = %q", got)
	}
}
