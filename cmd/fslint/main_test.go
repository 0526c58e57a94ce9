package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runArgs runs fslint with args and returns its exit code, stdout and stderr.
func runArgs(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// problemMatcher compiles the regexp CI uses to turn findings into
// pull-request annotations.
func problemMatcher(t *testing.T) *regexp.Regexp {
	t.Helper()
	data, err := os.ReadFile("../../.github/fslint-problem-matcher.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		ProblemMatcher []struct {
			Pattern []struct{ Regexp string }
		}
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return regexp.MustCompile(m.ProblemMatcher[0].Pattern[0].Regexp)
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, stdout, stderr := runArgs(t, "./testdata/clean")
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, want 0 and no output\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestFindingExitsOneInMatcherFormat(t *testing.T) {
	code, stdout, stderr := runArgs(t, "./testdata/dirty")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d findings, want 1:\n%s", len(lines), stdout)
	}
	m := problemMatcher(t).FindStringSubmatch(lines[0])
	if m == nil {
		t.Fatalf("finding %q does not match the problem matcher", lines[0])
	}
	if m[1] != "testdata/dirty/dirty.go" || m[2] != "5" || m[5] != "style" {
		t.Errorf("matcher read file %q line %s analyzer %q from %q", m[1], m[2], m[5], lines[0])
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	if code, _, stderr := runArgs(t, "-analyzers", "style", "./testdata/clean"); code != 2 {
		t.Fatalf("exit %d, want 2\nstderr:\n%s", code, stderr)
	}
}
