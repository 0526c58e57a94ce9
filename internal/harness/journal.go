package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// Journal is a crash-safe record of completed task IDs: one JSON object
// per line, appended and flushed as each task finishes, so a killed sweep
// loses at most the task that was running.
//
// The first line is a scope header identifying the sweep configuration
// (for fstables: scale, seed, and any -scenario path and -alloc objective).
// Opening a journal whose recorded scope differs from the requested one
// truncates it — results from a different configuration must never be
// "resumed" into this sweep.
//
// A Journal is not safe for concurrent use; RunAll, its one user, runs
// tasks one at a time.
type Journal struct {
	path  string
	scope string
	done  map[string]bool
	f     *os.File
	w     *bufio.Writer
}

type journalLine struct {
	// Scope is set on the header line only.
	Scope string `json:"scope,omitempty"`
	// Done is a completed task ID.
	Done string `json:"done,omitempty"`
}

// OpenJournal opens (or creates) the journal at path for the given scope,
// loading previously completed IDs. A scope mismatch or an unparsable file
// discards the old contents: a corrupt or stale journal degrades to "no
// resume", never to skipping work that was not actually done.
func OpenJournal(path, scope string) (*Journal, error) {
	j := &Journal{path: path, scope: scope, done: map[string]bool{}}
	if data, err := os.ReadFile(path); err == nil {
		j.load(data)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("harness: open journal: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	if err := j.writeLine(journalLine{Scope: scope}); err != nil {
		f.Close()
		return nil, err
	}
	for id := range j.done {
		// Rewrite carried-over completions so the file stays complete
		// after the truncating Create.
		if err := j.writeLine(journalLine{Done: id}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// load parses previous contents, keeping completed IDs only when the
// scope header matches.
func (j *Journal) load(data []byte) {
	var done []string
	scopeOK := false
	start := 0
	for i := 0; i <= len(data); i++ {
		if i != len(data) && data[i] != '\n' {
			continue
		}
		line := data[start:i]
		start = i + 1
		if len(line) == 0 {
			continue
		}
		var l journalLine
		if err := json.Unmarshal(line, &l); err != nil {
			return // corrupt journal: resume nothing
		}
		if l.Scope != "" {
			if l.Scope != j.scope {
				return // stale scope: resume nothing
			}
			scopeOK = true
		}
		if l.Done != "" {
			done = append(done, l.Done)
		}
	}
	if !scopeOK {
		return
	}
	for _, id := range done {
		j.done[id] = true
	}
}

func (j *Journal) writeLine(l journalLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("harness: journal encode: %w", err)
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("harness: journal write: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("harness: journal flush: %w", err)
	}
	return nil
}

// Done reports whether id is recorded as completed.
func (j *Journal) Done(id string) bool {
	return j.done[id]
}

// MarkDone records id as completed and flushes it to disk.
func (j *Journal) MarkDone(id string) error {
	if j.done[id] {
		return nil
	}
	j.done[id] = true
	return j.writeLine(journalLine{Done: id})
}

// Close flushes and closes the underlying file.
func (j *Journal) Close() error {
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return fmt.Errorf("harness: journal flush: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("harness: journal close: %w", err)
	}
	return nil
}
