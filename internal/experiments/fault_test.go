package experiments

import (
	"bytes"
	"runtime"
	"testing"
)

// The A4 acceptance criteria in one test: every fault class leaves the ε
// band and re-converges within it, and two same-seed runs (one sequential,
// one parallel) print byte-identical tables.
func TestAblationFaultRecoversDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep too slow for -short")
	}
	scale := tiny()

	render := func(workers int) (AblationFaultResult, string) {
		parallelWorkers = workers
		defer func() { parallelWorkers = 0 }()
		res := AblationFault(scale)
		var buf bytes.Buffer
		res.Print(&buf)
		return res, buf.String()
	}

	res, seq := render(1)
	if len(res.Rows) != len(faultClasses) {
		t.Fatalf("A4 produced %d rows, want one per class (%d)", len(res.Rows), len(faultClasses))
	}
	for _, row := range res.Rows {
		if !row.Recovered {
			t.Errorf("%s: controller did not re-converge (maxDev %.3f, finalErr %.3f)",
				row.Class, row.MaxDev, row.FinalErr)
		}
		if row.FinalErr > FaultEps {
			t.Errorf("%s: final occupancy error %.3f exceeds ε=%.2f", row.Class, row.FinalErr, FaultEps)
		}
		// A class that cannot disturb the controller proves nothing by
		// "recovering".
		if row.MaxDev <= FaultEps {
			t.Errorf("%s: max deviation %.3f never left the ε band; injection had no effect",
				row.Class, row.MaxDev)
		}
	}

	_, par := render(runtime.GOMAXPROCS(0))
	if seq != par {
		t.Fatalf("A4 results depend on scheduling:\n--- 1 worker ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// The settle rule on its three cases: a run that never left the ε band, one
// that left and came back, and one that ended outside it.
func TestSettle(t *testing.T) {
	for _, tc := range []struct {
		name           string
		lastOutside, n int
		wantIns        int
		wantRecovered  bool
	}{
		{"never_left", -1, 10, 0, true},
		{"left_and_settled", 2, 5, 3, true},
		{"ends_outside", 1, 2, -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ins, rec := settle(tc.lastOutside, tc.n)
			if ins != tc.wantIns || rec != tc.wantRecovered {
				t.Errorf("settle(%d, %d) = %d, %v; want %d, %v",
					tc.lastOutside, tc.n, ins, rec, tc.wantIns, tc.wantRecovered)
			}
		})
	}
}
