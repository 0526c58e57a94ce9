package style_test

import (
	"testing"

	"fscache/internal/lint/analysis/analysistest"
	"fscache/internal/lint/style"
)

func TestFloatEq(t *testing.T) {
	analysistest.Run(t, "testdata", style.Analyzer, "floateq")
}

// TestPanicStyle checks a library package and the package main exemption.
func TestPanicStyle(t *testing.T) {
	analysistest.Run(t, "testdata", style.Analyzer, "panicstyle", "panicmain")
}

func TestTSWrap(t *testing.T) {
	analysistest.Run(t, "testdata", style.Analyzer, "tswrap")
}
