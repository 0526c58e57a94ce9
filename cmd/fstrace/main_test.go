package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runArgs runs fstrace with args and returns its exit code, stdout and stderr.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestGenInfoMRCRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mcf.fst")
	steps := []struct {
		args []string
		want []string
	}{
		{[]string{"gen", "-bench", "mcf", "-n", "5000", "-l2", "-o", path}, []string{"wrote 5000 accesses to " + path}},
		{[]string{"info", path}, []string{"format:        FST2 (CRC-32 verified)", "accesses:      5000"}},
		{[]string{"mrc", path}, []string{"missratio", "cold misses:", "of 5000"}},
	}
	for _, s := range steps {
		code, stdout, stderr := runArgs(s.args...)
		if code != 0 {
			t.Fatalf("%q: exit %d\n%s", s.args, code, stderr)
		}
		for _, w := range s.want {
			if !strings.Contains(stdout, w) {
				t.Errorf("%q: no %q in output:\n%s", s.args, w, stdout)
			}
		}
	}
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"stat", "x.fst"}, 2},
		{[]string{"info"}, 2},
		{[]string{"gen", "-bench", "mcf"}, 2}, // no -o
		{[]string{"gen", "-bench", "nope", "-o", "x.fst"}, 2},    // unknown benchmark
		{[]string{"gen", "-thread", "1", "-o", "x.fst"}, 2},      // deleted flag
		{[]string{"gen", "-n", "10", "-o", dir}, 1},              // unwritable output
		{[]string{"info", filepath.Join(dir, "missing.fst")}, 1}, // unreadable input
	}
	for _, tc := range cases {
		if code, _, stderr := runArgs(tc.args...); code != tc.code {
			t.Errorf("%q: exit %d, want %d\n%s", tc.args, code, tc.code, stderr)
		}
	}
}
