package lockcheck_test

import (
	"testing"

	"fscache/internal/lint/analysis/analysistest"
	"fscache/internal/lint/lockcheck"
)

func TestLockDiscipline(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.New(), "lock")
}

// TestThreeLevelOrder covers a three-level rmu → tmu → stripe.mu
// discipline: the snapshot-then-apply pattern, the legal tmu-across-stripes
// hold, and all three inversions.
func TestThreeLevelOrder(t *testing.T) {
	analysistest.Run(t, "testdata", lockcheck.New(), "order")
}
