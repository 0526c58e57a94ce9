package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"fscache/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// elapsed matches the wall-clock figure on an experiment's closing line, the
// one part of fstables' output that differs between runs of one tree.
var elapsed = regexp.MustCompile(`(?m)^(---- \S+ (?:done in|FAILED after)) \S+$`)

// checkGolden compares got, with durations masked, against testdata/name.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	got = elapsed.ReplaceAllString(got, "$1 <elapsed>")
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestTable2Output pins `fstables -fig table2`'s stdout byte for byte,
// elapsed time aside. After a deliberate change, regenerate it with
//
//	go test ./cmd/fstables -run TestTable2Output -update
func TestTable2Output(t *testing.T) {
	code, stdout, stderr := runArgs("-fig", "table2")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	checkGolden(t, "table2.golden", stdout)
}

func panickingExperiment(experiments.Scale) experiments.Printable {
	panic("fstables test: deliberate panic")
}

// A panicking experiment is reported FAILED, the experiments after it still
// run, the failure report on stderr carries its stack, and the exit status
// is 1. The golden holds stdout, then stderr with the stack's frames (which
// name files and addresses) folded into one marker line.
func TestPanickingExperimentReported(t *testing.T) {
	table2, err := experiments.ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	saved := registry
	defer func() { registry = saved }()
	registry = func() []experiments.Runner {
		return []experiments.Runner{{ID: "boom", Desc: "an experiment that panics", Run: panickingExperiment}, table2}
	}

	code, stdout, stderr := runArgs()
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	head, stack, ok := strings.Cut(stderr, "    panic stack:\n")
	if !ok || !strings.Contains(stack, ".panickingExperiment(") {
		t.Fatalf("stderr carries no stack through the panicking experiment:\n%s", stderr)
	}
	for _, line := range strings.SplitAfter(strings.TrimSuffix(stack, "\n"), "\n") {
		if !strings.HasPrefix(line, "      ") {
			t.Fatalf("stack line %q is not indented under the report", line)
		}
	}
	checkGolden(t, "panic.golden", stdout+"--- stderr ---\n"+head+"    panic stack:\n      <frames>\n")
}
