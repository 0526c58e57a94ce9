package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// runArgs runs fscheck with args and returns its exit code, stdout and stderr.
func runArgs(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRuns(t *testing.T) {
	hex, err := os.ReadFile("../../internal/difftest/testdata/corpus/setassoc-h3-coarse-lru-fs.hex")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-n", "20"}, "fscheck: 20 scenarios"},
		{[]string{"-replay", strings.TrimSpace(string(hex))}, "scenario runs in lockstep, no divergence"},
		{[]string{"-selftest"}, "selftest ok"},
	}
	for _, tc := range cases {
		code, stdout, stderr := runArgs(tc.args...)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("%q: exit %d, want 0 with %q\nstdout:\n%s\nstderr:\n%s", tc.args, code, tc.want, stdout, stderr)
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-replay", "00", "-n", "5"},
		{"-selftest", "-seed", "3"},
		{"-replay", "00", "-selftest"},
		{"-duration", "1s", "-n", "5"},
		{"-replay", "zz"},
		{"-v"},
	} {
		if code, _, stderr := runArgs(args...); code != 2 {
			t.Errorf("%q: exit %d, want 2\n%s", args, code, stderr)
		}
	}
}
