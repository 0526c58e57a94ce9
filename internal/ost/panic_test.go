package ost

import "testing"

// mustPanic runs fn and asserts it panics with exactly msg. The panic-path
// contract matters: callers in internal/futility rely on these messages to
// distinguish bookkeeping bugs, and fslint's panicstyle rule requires the
// "ost: " prefix.
func mustPanic(t *testing.T, msg string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", msg)
		}
		if got, ok := r.(string); !ok || got != msg {
			t.Fatalf("panic = %v, want %q", r, msg)
		}
	}()
	fn()
}

func TestPanicPaths(t *testing.T) {
	cases := []struct {
		name string
		msg  string
		fn   func()
	}{
		{"duplicate insert", "ost: duplicate key inserted", func() {
			tr := New(1)
			tr.Insert(key(7), 0)
			tr.Insert(key(7), 1)
		}},
		{"select rank zero", "ost: Select rank out of range", func() {
			tr := New(1)
			tr.Insert(key(7), 0)
			tr.Select(0)
		}},
		{"select rank past len", "ost: Select rank out of range", func() {
			tr := New(1)
			tr.Insert(key(7), 0)
			tr.Select(2)
		}},
		{"select on empty", "ost: Select rank out of range", func() {
			New(1).Select(1)
		}},
		{"min of empty", "ost: Min of empty tree", func() {
			_, _ = New(1).Min()
		}},
		{"max of empty", "ost: Max of empty tree", func() {
			_, _ = New(1).Max()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic(t, tc.msg, tc.fn)
		})
	}
}

// Sanity: the panicking paths must not fire on valid input.
func TestPanicPathsCleanCounterparts(t *testing.T) {
	tr := New(1)
	tr.Insert(key(7), 70)
	tr.Insert(key(9), 90)
	if k, v := tr.Select(1); k != key(7) || v != 70 {
		t.Fatalf("Select(1) = %v,%d", k, v)
	}
	if k, _ := tr.Min(); k != key(7) {
		t.Fatalf("Min = %v", k)
	}
	if k, _ := tr.Max(); k != key(9) {
		t.Fatalf("Max = %v", k)
	}
}
