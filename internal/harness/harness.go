// Package harness runs experiment sweeps to completion in the presence of
// failure. A full-scale fstables sweep is hours of compute; one panicking
// experiment, one livelocked simulation or one killed terminal should cost
// the failed cell, not the whole run. The harness provides:
//
//   - panic isolation: each task runs in its own goroutine behind recover,
//     so a panic becomes a typed *ExperimentError carrying the recovered
//     value and stack, and the sweep continues;
//   - wall-clock deadlines: a per-task timeout turns a hung task into a
//     reported failure (the deterministic in-simulation guard is
//     sim.SetStepLimit; the wall clock is the backstop for everything else);
//   - resume: a Journal records completed task IDs so a re-invoked sweep
//     skips finished work;
//   - salvage: RunAll always runs every task and returns a Summary holding
//     each result, so partial output survives and failures are reported
//     together at the end.
//
// The harness is driver infrastructure, not simulation: it may read the
// wall clock, and nothing inside the determinism contract may depend on it.
package harness

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"time"
)

// Task is one unit of a sweep.
type Task struct {
	// ID names the task in reports and the journal; IDs must be unique
	// within a sweep.
	ID string
	// Run executes the task and returns its result.
	Run func() (interface{}, error)
}

// ExperimentError is the typed failure RunAll records for a task.
type ExperimentError struct {
	// ID is the failed task.
	ID string
	// Err is the underlying failure: the task's returned error, or a
	// synthesized one describing a panic or timeout.
	Err error
	// Stack is the goroutine stack at the recovery point when the task
	// panicked, nil otherwise.
	Stack []byte
	// Timeout reports that the task exceeded its deadline.
	Timeout bool
}

// Error implements error.
func (e *ExperimentError) Error() string {
	return fmt.Sprintf("experiment %s: %v", e.ID, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ExperimentError) Unwrap() error { return e.Err }

// Options configures RunAll. The zero value runs every task once with no
// deadline, no journal and no reporting. A failed task is not retried:
// experiments are deterministic, so a task that failed once fails again.
type Options struct {
	// Timeout is the per-task wall-clock deadline; zero means none.
	Timeout time.Duration
	// Journal, when non-nil, records completed task IDs and skips tasks
	// already recorded.
	Journal *Journal
	// Report, when non-nil, observes each task's Result as it finishes
	// (including journal skips) — the driver's progress output.
	Report func(Result)
}

// Result is the outcome of one task.
type Result struct {
	// ID is the task.
	ID string
	// Value is Run's return value when the task succeeded.
	Value interface{}
	// Err is nil on success, a *ExperimentError on failure.
	Err error
	// Elapsed is the task's wall time.
	Elapsed time.Duration
	// Resumed reports the task was skipped because the journal already
	// records it as done.
	Resumed bool
}

// Summary aggregates a sweep.
type Summary struct {
	// Results holds one entry per task, in input order.
	Results []Result
}

// Completed counts tasks that succeeded in this run (resumed skips not
// included).
func (s Summary) Completed() int {
	n := 0
	for _, r := range s.Results {
		if r.Err == nil && !r.Resumed {
			n++
		}
	}
	return n
}

// Failed returns the failures, in input order.
func (s Summary) Failed() []Result {
	var out []Result
	for _, r := range s.Results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}

// Resumed counts tasks skipped via the journal.
func (s Summary) Resumed() int {
	n := 0
	for _, r := range s.Results {
		if r.Resumed {
			n++
		}
	}
	return n
}

// OK reports whether every task succeeded (or was already done).
func (s Summary) OK() bool { return len(s.Failed()) == 0 }

// PrintFailures writes a failure report, including recovered panic stacks,
// to w.
func (s Summary) PrintFailures(w io.Writer) {
	failed := s.Failed()
	if len(failed) == 0 {
		return
	}
	fmt.Fprintf(w, "%d experiment(s) failed:\n", len(failed))
	for _, r := range failed {
		fmt.Fprintf(w, "  %v\n", r.Err)
		var ee *ExperimentError
		if errors.As(r.Err, &ee) && ee.Stack != nil {
			fmt.Fprintf(w, "    panic stack:\n")
			for _, line := range splitLines(ee.Stack) {
				fmt.Fprintf(w, "      %s\n", line)
			}
		}
	}
}

func splitLines(b []byte) []string {
	var out []string
	start := 0
	for i, c := range b {
		if c == '\n' {
			out = append(out, string(b[start:i]))
			start = i + 1
		}
	}
	if start < len(b) {
		out = append(out, string(b[start:]))
	}
	return out
}

// RunAll executes every task sequentially and returns a Summary with one
// Result per task. It never stops early: a failed task is recorded and the
// sweep moves on, so a long run salvages everything that worked.
func RunAll(tasks []Task, opts Options) Summary {
	s := Summary{Results: make([]Result, 0, len(tasks))}
	for _, task := range tasks {
		if opts.Journal != nil && opts.Journal.Done(task.ID) {
			res := Result{ID: task.ID, Resumed: true}
			if opts.Report != nil {
				opts.Report(res)
			}
			s.Results = append(s.Results, res)
			continue
		}
		start := time.Now()
		value, err, stack, timedOut := runIsolated(task, opts.Timeout)
		res := Result{ID: task.ID, Elapsed: time.Since(start)}
		if err != nil {
			res.Err = &ExperimentError{ID: task.ID, Err: err, Stack: stack, Timeout: timedOut}
		} else {
			res.Value = value
			if opts.Journal != nil {
				// A journal write failure must not poison the sweep: the
				// task still succeeded, resume just won't skip it next time.
				_ = opts.Journal.MarkDone(task.ID)
			}
		}
		if opts.Report != nil {
			opts.Report(res)
		}
		s.Results = append(s.Results, res)
	}
	return s
}

// runIsolated executes the task in its own goroutine so a panic is
// contained and a deadline can be enforced. On timeout the goroutine is
// abandoned — Go offers no preemptive kill — which leaks the goroutine and
// whatever it allocates until it finishes on its own; acceptable for a
// driver process that exits after the sweep, and the reason long
// simulations should also carry an in-sim step limit.
func runIsolated(task Task, timeout time.Duration) (value interface{}, err error, stack []byte, timedOut bool) {
	type outcome struct {
		value interface{}
		err   error
		stack []byte
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{
					err:   fmt.Errorf("panic: %v", r),
					stack: debug.Stack(),
				}
			}
		}()
		v, e := task.Run()
		ch <- outcome{value: v, err: e}
	}()
	if timeout <= 0 {
		o := <-ch
		return o.value, o.err, o.stack, false
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.value, o.err, o.stack, false
	case <-timer.C:
		return nil, fmt.Errorf("timed out after %v", timeout), nil, true
	}
}
