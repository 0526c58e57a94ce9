package main

import (
	"bytes"
	"strings"
	"testing"
)

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
		{[]string{"-timeout", "1h", "-fig", "table2"}, "-timeout"},
		{[]string{"-resume", "-fig", "table2"}, "-resume"},
		{[]string{"-journal", "j", "-fig", "table2"}, "-journal"},
		{[]string{"-panic", "table2", "-fig", "table2"}, "-panic"},
		{[]string{"-scenario", "../../examples/scenarios/zipf-drift.yaml", "-alloc", "bogus"}, "want utility, maxmin or phase"},
	} {
		code, _, stderr := runArgs(tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.flag) {
			t.Errorf("%q: exit %d, want 2 naming %s\n%s", tc.args, code, tc.flag, stderr)
		}
	}
}
