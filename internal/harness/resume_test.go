package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJournalSalvageAfterMidSweepPanic is the crash-resume path end to end:
// a sweep panics in the middle, the journal records everything that
// finished on either side of the panic (the panic is salvaged, not fatal),
// and a re-run with the same scope re-executes only the panicked task.
func TestJournalSalvageAfterMidSweepPanic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	runs := map[string]int{}
	panics := 0
	task := func(id string) Task {
		return Task{ID: id, Run: func() (interface{}, error) {
			runs[id]++
			if id == "boom" && panics == 0 {
				panics++
				panic("resume_test: deliberate mid-sweep panic")
			}
			return id, nil
		}}
	}
	tasks := []Task{task("before"), task("boom"), task("after")}

	j1, err := OpenJournal(path, "scope")
	if err != nil {
		t.Fatal(err)
	}
	s1 := RunAll(tasks, Options{Journal: j1})
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	if s1.Completed() != 2 {
		t.Fatalf("first sweep completed %d tasks, want 2 salvaged around the panic", s1.Completed())
	}
	if failed := s1.Failed(); len(failed) != 1 || failed[0].ID != "boom" {
		t.Fatalf("first sweep failures: %+v, want exactly boom", failed)
	}

	// The journal on disk must carry both survivors — the panicked task
	// must NOT be recorded as done.
	j2, err := OpenJournal(path, "scope")
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Done("before") || !j2.Done("after") {
		t.Fatalf("journal lost completions around the panic: before=%v after=%v",
			j2.Done("before"), j2.Done("after"))
	}
	if j2.Done("boom") {
		t.Fatal("journal recorded the panicked task as done")
	}
	s2 := RunAll(tasks, Options{Journal: j2})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if s2.Resumed() != 2 {
		t.Fatalf("resume skipped %d tasks, want 2", s2.Resumed())
	}
	if !s2.OK() {
		t.Fatalf("resumed sweep still failing: %+v", s2.Failed())
	}
	if runs["before"] != 1 || runs["after"] != 1 || runs["boom"] != 2 {
		t.Fatalf("run counts %v, want before=1 after=1 boom=2", runs)
	}
}

// TestJournalMissingScopeHeaderResumesNothing pins the degradation mode for
// a journal that carries completion lines but no scope header (e.g. written
// by a future tool or hand-edited): without a provable scope match, nothing
// may be skipped.
func TestJournalMissingScopeHeaderResumesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	if err := os.WriteFile(path, []byte(`{"done":"a"}`+"\n"+`{"done":"b"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, "scope")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(j.done) != 0 {
		t.Fatalf("journal without scope header resumed %d tasks", len(j.done))
	}
}

// TestJournalTornTrailingLineResumesNothing pins the crash-mid-write
// degradation: a torn (truncated JSON) final line makes the whole journal
// untrusted, which degrades to re-running work — never to skipping work
// that may not have happened.
func TestJournalTornTrailingLineResumesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	content := `{"scope":"scope"}` + "\n" + `{"done":"a"}` + "\n" + `{"done":"b`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, "scope")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(j.done) != 0 {
		t.Fatalf("journal with torn trailing line resumed %d tasks", len(j.done))
	}
}

// TestJournalScopeMismatchTruncatesFile verifies the stale journal is
// actually rewritten on open, not merely ignored: after opening with a new
// scope, the old scope's completions must be gone from the file itself so a
// later open with the ORIGINAL scope cannot resurrect them.
func TestJournalScopeMismatchTruncatesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j1, err := OpenJournal(path, "old-scope")
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.MarkDone("stale-task"); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, "new-scope")
	if err != nil {
		t.Fatal(err)
	}
	if len(j2.done) != 0 {
		t.Fatalf("scope change resumed %d tasks", len(j2.done))
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "stale-task") {
		t.Fatalf("stale completion survived the scope change on disk:\n%s", data)
	}
	j3, err := OpenJournal(path, "old-scope")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Done("stale-task") {
		t.Fatal("reopening with the original scope resurrected a stale completion")
	}
}
