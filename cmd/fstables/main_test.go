package main

import (
	"path/filepath"
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
