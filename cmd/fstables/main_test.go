package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"fscache/internal/experiments"
	"fscache/internal/harness"
)

// A -resume journal written by an allocator run under one objective must
// not skip the same spec under another: both runs have the task ID
// "alloc:<spec name>", so only the scope tells them apart.
func TestResumeDoesNotSkipAnotherAllocObjective(t *testing.T) {
	sc := experiments.Quick()
	const spec = "examples/scenarios/zipf-drift.yaml"
	path := filepath.Join(t.TempDir(), "fstables.journal")
	runs := 0
	tasks := []harness.Task{{ID: "alloc:zipf-drift", Run: func() (interface{}, error) {
		runs++
		return nil, nil
	}}}
	sweep := func(scope string) harness.Summary {
		j, err := harness.OpenJournal(path, scope)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		return harness.RunAll(tasks, harness.Options{Journal: j})
	}

	sweep(journalScope(sc, spec, "phase"))
	if s := sweep(journalScope(sc, spec, "phase")); s.Resumed() != 1 {
		t.Fatalf("same objective resumed %d tasks, want 1", s.Resumed())
	}
	if s := sweep(journalScope(sc, spec, "utility")); s.Resumed() != 0 {
		t.Fatalf("-alloc utility resumed %d tasks journaled under -alloc phase", s.Resumed())
	}
	if s := sweep(journalScope(sc, "examples/scenarios/tenant-churn.yaml", "utility")); s.Resumed() != 0 {
		t.Fatalf("another -scenario resumed %d tasks", s.Resumed())
	}
	if runs != 3 {
		t.Fatalf("task ran %d times, want 3", runs)
	}
}

// A registry sweep keeps the scope it always had, so journals written
// before the scenario and objective joined the scope still resume.
func TestRegistrySweepScopeUnchanged(t *testing.T) {
	sc := experiments.Quick()
	if got, want := journalScope(sc, "", ""), "scale=quick seed=20140621"; got != want {
		t.Fatalf("scope %q, want %q", got, want)
	}
}

// runArgs runs fstables with args and returns its exit code, stdout and stderr.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestListExitsZero(t *testing.T) {
	code, stdout, stderr := runArgs("-list")
	if code != 0 || !strings.HasPrefix(stdout, "table2     Table II: system configuration\n") {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// Each case would run something cheap if its flag were accepted.
func TestInapplicableFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-alloc", "utility", "-fig", "table2"}, "-alloc"},
		{[]string{"-scenario", "../../examples/scenarios/zipf-drift.yaml", "-fig", "table2"}, "-fig"},
		{[]string{"-json", "-fig", "table2"}, "-json"},
	} {
		code, _, stderr := runArgs(tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.flag) {
			t.Errorf("%q: exit %d, want 2 naming %s\n%s", tc.args, code, tc.flag, stderr)
		}
	}
}
