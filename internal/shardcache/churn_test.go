package shardcache

import (
	"sync"
	"testing"

	"fscache/internal/futility"
	"fscache/internal/scenario"
	"fscache/internal/xrand"
)

// churnScenario is a scenario-driven tenant lifecycle: a newcomer appears
// mid-run, an incumbent is destroyed and later re-created. The stream's
// churn ops carry the re-apportioned target vectors the engine must absorb
// live.
const churnScenario = `
name: shardcache-churn
seed: 1337
accesses: 60000
cache:
  lines: 2048
clients:
  - name: anchor
    share: 2
    workload:
      mix:
        - kind: zipf
          lines: 1024
          theta: 1.0
          weight: 1
  - name: commuter
    share: 1
    workload:
      profile: lbm
      shrink: 8
  - name: newcomer
    share: 1
    workload:
      mix:
        - kind: uniform
          lines: 512
          weight: 1
churn:
  - at: 0.25
    client: newcomer
    action: create
  - at: 0.45
    client: commuter
    action: destroy
  - at: 0.7
    client: commuter
    action: create
`

// TestScenarioTenantChurn is the tenant-churn regression test for the
// striped engine: a compiled scenario stream drives churn (SetTargets with
// re-apportioned vectors, including a zeroed target for the destroyed
// tenant) while free-running workers race against it, and CheckInvariants must pass after EVERY churn event — not
// just after quiesce — so a conservation bug introduced by retargeting
// mid-traffic is caught at the event that created it. Run under -race in
// CI, this is the concurrent counterpart of the deterministic
// fstables -scenario churn run.
func TestScenarioTenantChurn(t *testing.T) {
	spec, err := scenario.Parse([]byte(churnScenario), "shardcache-churn")
	if err != nil {
		t.Fatalf("parse scenario: %v", err)
	}
	comp, err := scenario.Compile(spec, "")
	if err != nil {
		t.Fatalf("compile scenario: %v", err)
	}
	cfg := Config{
		Lines:   spec.Cache.Lines,
		Ways:    spec.Cache.Ways,
		Stripes: 8,
		Parts:   comp.Parts(),
		Ranking: futility.CoarseLRU,
		Seed:    testSeed ^ 0xc42,
	}
	e := New(cfg)
	e.SetTargets(comp.Targets(cfg.Lines, comp.InitialLive()))

	// Background accessors: each worker runs its own reseeded interleaving
	// of the same compiled stream, skipping churn ops (the main goroutine
	// owns retargeting) — the same division of labor cmd/fsload uses.
	bgWorkers := 3
	accesses := spec.Accesses
	if testing.Short() {
		bgWorkers, accesses = 1, 20000
	}
	var wg sync.WaitGroup
	for w := 0; w < bgWorkers; w++ {
		wg.Add(1)
		//fslint:ignore determinism churn regression test: free-running workers deliberately race the retargeting path; only invariants and race-freedom are asserted
		go func(w int) {
			defer wg.Done()
			st := comp.NewStreamSeeded(cfg.Lines, xrand.Mix64(spec.Seed^uint64(w+2)*0x9e3779b97f4a7c15))
			var op scenario.Op
			for i := 0; i < accesses && st.Next(&op); {
				if op.Kind != scenario.OpAccess {
					continue
				}
				e.Access(xrand.Mix64(op.Access.Addr), op.Part)
				i++
			}
		}(w)
	}
	// Foreground: the base stream drives churn. Every churn event must
	// leave the engine internally consistent while traffic keeps flowing.
	st := comp.NewStream(cfg.Lines)
	churns := 0
	var op scenario.Op
	for st.Next(&op) {
		if op.Kind == scenario.OpChurn {
			e.SetTargets(op.Targets)
			churns++
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants violated after churn event %d (%s create=%v): %v",
					churns, op.Client, op.Create, err)
			}
			sum := 0
			for p := 0; p < cfg.Parts; p++ {
				sum += e.Snapshot().Parts[p].Target
			}
			if sum != cfg.Lines {
				t.Fatalf("churn event %d: cache-wide targets sum to %d, want %d", churns, sum, cfg.Lines)
			}
			continue
		}
		e.Access(xrand.Mix64(op.Access.Addr), op.Part)
	}
	wg.Wait()

	if churns != 3 {
		t.Fatalf("stream delivered %d churn events, want 3", churns)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants after quiesce: %v", err)
	}
	// The destroyed-then-recreated tenant must hold a live target again and
	// the washed-out newcomer a nonzero one; the final vector is the
	// all-live apportionment.
	final := comp.Targets(cfg.Lines, []bool{true, true, true})
	for p := 0; p < cfg.Parts; p++ {
		if got := e.Snapshot().Parts[p].Target; got != final[p] {
			t.Errorf("final target[%d] = %d, want %d", p, got, final[p])
		}
	}
}
