package core_test

import (
	"testing"

	"fscache/internal/difftest"
)

// FuzzAccess fuzzes the full replacement pipeline against the naive oracle:
// the input bytes decode to a scenario program (difftest.FromBytes decodes
// any input long enough for a header and one op; a shorter one is skipped)
// which runs in lockstep on both models. Any divergence — hit/miss, victim
// identity, occupancy, scaling factors, invariant audit, or a panic in
// either model — fails the fuzz run with the scenario encoded in the
// failing input.
//
// The seed corpus under testdata/fuzz/FuzzAccess is the one committed
// regression corpus: one scenario per array/ranking/scheme combination,
// which `go test ./internal/difftest -run TestCorpus -regen-corpus` rewrites,
// and any saved crasher. Plain `go test` replays every file there; a failure
// prints the program as such a seed file. `make soak` fuzzes for 10 minutes.
func FuzzAccess(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := difftest.FromBytes(data)
		if s == nil {
			t.Skip()
		}
		// Cap the work per input so the fuzzer spends its budget on many
		// small programs instead of a few giant ones.
		if len(s.Ops) > 2048 {
			s.Ops = s.Ops[:2048]
		}
		if d := difftest.RunScenario(s, difftest.Options{}); d != nil {
			t.Fatalf("%v\n%sseed file for testdata/fuzz/FuzzAccess:\ngo test fuzz v1\n[]byte(%q)\n",
				d, s.Describe(), difftest.ToBytes(s))
		}
	})
}
