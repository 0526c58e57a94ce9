package experiments

import (
	"fmt"
	"io"
	"sort"

	"fscache/internal/futility"
)

// Printable is implemented by every experiment result.
type Printable interface {
	Print(w io.Writer)
}

// Runner executes one experiment at a scale.
type Runner struct {
	// ID matches DESIGN.md's experiment index.
	ID string
	// Desc is a one-line description.
	Desc string
	// Run executes the experiment and returns the printable result.
	Run func(scale Scale) Printable
}

// Registry returns every experiment in DESIGN.md's index order.
func Registry() []Runner {
	return []Runner{
		{"table2", "Table II: system configuration", func(s Scale) Printable { return Table2(s) }},
		{"fig2a", "Fig.2a: PF associativity CDF for mcf, N=1..32", func(s Scale) Printable { return Fig2a(s, "mcf") }},
		{"fig2bc", "Fig.2b/2c: PF misses and IPC across 8 benchmarks", func(s Scale) Printable { return Fig2bc(s, nil) }},
		{"fig3", "Fig.3: analytic scaling factors (Eq. 1)", func(s Scale) Printable { return Fig3() }},
		{"fig4", "Fig.4: FS vs PF associativity CDFs", func(s Scale) Printable { return Fig4(s) }},
		{"fig5", "Fig.5: FS vs PF size deviation", func(s Scale) Printable { return Fig5(s) }},
		{"fig6", "Fig.6: fully-assoc vs direct-mapped speedups (OPT, LRU)", func(s Scale) Printable { return Fig6(s) }},
		{"fig7", "Fig.7/8: QoS occupancy, AEF and performance, 32 threads", func(s Scale) Printable { return Fig7(s, nil, nil) }},
		{"sens-l", "§VIII: sensitivity to interval length l", func(s Scale) Printable { return SensInterval(s) }},
		{"sens-delta", "§VIII: sensitivity to changing ratio Δα", func(s Scale) Printable { return SensDelta(s) }},
		{"abl-fs", "A1: analytic FS vs feedback FS", func(s Scale) Printable { return AblationFS(s) }},
		{"abl-r", "A2: AEF vs candidate count R", func(s Scale) Printable { return AblationR(s) }},
		{"abl-way", "A3: placement (way-partitioning) vs replacement (FS)", func(s Scale) Printable { return AblationWay(s) }},
		{"abl-fault", "A4: fault injection — feedback FS re-convergence per fault class", func(s Scale) Printable { return AblationFault(s) }},
		{"resize", "§II property 1: smooth resizing after a target flip", func(s Scale) Printable { return Resize(s) }},
		{"util", "§II-A stack: UMON utility allocation over FS enforcement", func(s Scale) Printable { return Util(s) }},
	}
}

// ByID returns the named runner.
func ByID(id string) (Runner, error) {
	var ids []string
	for _, r := range Registry() {
		if r.ID == id {
			return r, nil
		}
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return Runner{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
}

// Table2Result prints the simulated system configuration (Table II).
type Table2Result struct {
	Scale Scale
}

// Table2 returns the configuration dump.
func Table2(scale Scale) Table2Result { return Table2Result{Scale: scale} }

// Print implements Printable.
func (t Table2Result) Print(w io.Writer) {
	s := t.Scale
	fprintf(w, "Table II: system configuration (%s scale)\n", s.Name)
	fprintf(w, "  Cores   %d × 2 GHz in-order (trace-driven)\n", Fig7Threads)
	fprintf(w, "  L1 $s   split I/D, private, 32 KB, 4-way, 64 B lines (D modeled)\n")
	fprintf(w, "  L2 $    shared 16-way set associative, H3 indexing, %d lines (%d KB), 8-cycle access\n",
		s.L2Lines, s.L2Lines*64/1024)
	fprintf(w, "          futility ranking: %v or %v; NUCA L1→L2 4 cycles avg\n",
		futility.CoarseLRU, futility.OPT)
	fprintf(w, "  MCU     200-cycle zero-load latency, 32 GB/s peak bandwidth (4 cycles/line)\n")
	fprintf(w, "  QoS     subject guarantee %d lines (%d KB); trace length %d L2 accesses/thread\n",
		s.SubjectLines, s.SubjectLines*64/1024, s.TraceLen)
}
