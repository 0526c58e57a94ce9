package harness

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func ok(id string) Task {
	return Task{ID: id, Run: func() (interface{}, error) { return id + "-value", nil }}
}

func TestRunAllSalvagesAroundPanic(t *testing.T) {
	boom := Task{ID: "boom", Run: func() (interface{}, error) { panic("harness_test: deliberate") }}
	s := RunAll([]Task{ok("a"), boom, ok("b")}, Options{})
	if len(s.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(s.Results))
	}
	if s.OK() {
		t.Fatal("summary OK despite a panic")
	}
	if s.Completed() != 2 {
		t.Fatalf("Completed = %d, want 2 — the panic must not stop the sweep", s.Completed())
	}
	failed := s.Failed()
	if len(failed) != 1 || failed[0].ID != "boom" {
		t.Fatalf("Failed = %+v, want exactly boom", failed)
	}
	var ee *ExperimentError
	if !errors.As(failed[0].Err, &ee) {
		t.Fatalf("failure is %T, want *ExperimentError", failed[0].Err)
	}
	if ee.Stack == nil {
		t.Fatal("panic failure carries no stack")
	}
	if !strings.Contains(ee.Err.Error(), "deliberate") {
		t.Fatalf("panic value lost: %v", ee.Err)
	}
	var buf strings.Builder
	s.PrintFailures(&buf)
	for _, want := range []string{"1 experiment(s) failed", "boom", "panic stack", "harness_test"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("failure report missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunAllTimeout(t *testing.T) {
	hang := Task{ID: "hang", Run: func() (interface{}, error) {
		select {} // blocks forever
	}}
	start := time.Now()
	s := RunAll([]Task{hang, ok("after")}, Options{Timeout: 20 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not fire; sweep took %v", elapsed)
	}
	failed := s.Failed()
	if len(failed) != 1 || failed[0].ID != "hang" {
		t.Fatalf("Failed = %+v, want exactly hang", failed)
	}
	var ee *ExperimentError
	if !errors.As(failed[0].Err, &ee) || !ee.Timeout {
		t.Fatalf("failure %v not marked as timeout", failed[0].Err)
	}
	if s.Completed() != 1 {
		t.Fatalf("task after the hang did not run: %+v", s.Results)
	}
}

// An erroring task runs once and is reported: experiments are
// deterministic, so the harness never re-runs a failure.
func TestErroringTaskRunsOnceAndIsReported(t *testing.T) {
	attempts := 0
	errHard := errors.New("deterministic failure")
	task := Task{ID: "hard", Run: func() (interface{}, error) {
		attempts++
		return nil, errHard
	}}
	s := RunAll([]Task{task, ok("after")}, Options{})
	if attempts != 1 {
		t.Fatalf("erroring task ran %d times, want 1", attempts)
	}
	failed := s.Failed()
	if len(failed) != 1 || failed[0].ID != "hard" {
		t.Fatalf("Failed = %+v, want exactly hard", failed)
	}
	var ee *ExperimentError
	if !errors.As(failed[0].Err, &ee) || ee.Stack != nil || ee.Timeout {
		t.Fatalf("failure %#v is not a plain *ExperimentError", failed[0].Err)
	}
	if !errors.Is(failed[0].Err, errHard) {
		t.Fatalf("failure %v does not wrap the task's error", failed[0].Err)
	}
	if s.Completed() != 1 {
		t.Fatalf("task after the failure did not run: %+v", s.Results)
	}
}

func TestJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	runs := map[string]int{}
	task := func(id string) Task {
		return Task{ID: id, Run: func() (interface{}, error) {
			runs[id]++
			if id == "bad" {
				return nil, errors.New("fails every time")
			}
			return nil, nil
		}}
	}
	tasks := []Task{task("a"), task("bad"), task("b")}

	j1, err := OpenJournal(path, "scope-1")
	if err != nil {
		t.Fatal(err)
	}
	s1 := RunAll(tasks, Options{Journal: j1})
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if s1.Completed() != 2 || len(s1.Failed()) != 1 {
		t.Fatalf("first sweep: %+v", s1.Results)
	}

	// Second invocation, same scope: completed tasks skip, the failure
	// re-runs.
	j2, err := OpenJournal(path, "scope-1")
	if err != nil {
		t.Fatal(err)
	}
	s2 := RunAll(tasks, Options{Journal: j2})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if s2.Resumed() != 2 {
		t.Fatalf("second sweep resumed %d tasks, want 2: %+v", s2.Resumed(), s2.Results)
	}
	if runs["a"] != 1 || runs["b"] != 1 {
		t.Fatalf("completed tasks re-ran: %v", runs)
	}
	if runs["bad"] != 2 {
		t.Fatalf("failed task did not re-run: %v", runs)
	}

	// Different scope: nothing resumes.
	j3, err := OpenJournal(path, "scope-2")
	if err != nil {
		t.Fatal(err)
	}
	s3 := RunAll(tasks, Options{Journal: j3})
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	if s3.Resumed() != 0 {
		t.Fatalf("scope change still resumed %d tasks", s3.Resumed())
	}
	if runs["a"] != 2 {
		t.Fatalf("scope change did not re-run completed task: %v", runs)
	}
}

func TestJournalCorruptFileResumesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.MarkDone("a"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Truncate mid-line to simulate a crash during a write.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, []byte(`{"done": "tru`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, "s")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Done("tru") {
		t.Fatal("resumed a task from a torn journal line")
	}
	if !j2.Done("a") && len(j2.done) != 0 {
		t.Fatalf("inconsistent journal state: len %d", len(j2.done))
	}
}

func TestReportCallbackSeesEveryTask(t *testing.T) {
	var seen []string
	var resumed []bool
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.MarkDone("skip"); err != nil {
		t.Fatal(err)
	}
	RunAll([]Task{ok("skip"), ok("run")}, Options{
		Journal: j,
		Report: func(r Result) {
			seen = append(seen, r.ID)
			resumed = append(resumed, r.Resumed)
		},
	})
	j.Close()
	if len(seen) != 2 || seen[0] != "skip" || seen[1] != "run" {
		t.Fatalf("report saw %v, want [skip run]", seen)
	}
	if !resumed[0] || resumed[1] {
		t.Fatalf("resumed flags %v, want [true false]", resumed)
	}
}
