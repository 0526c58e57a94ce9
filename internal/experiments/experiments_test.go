package experiments

import (
	"bytes"
	"strings"
	"testing"

	"fscache/internal/futility"
	"fscache/internal/trace"
	"fscache/internal/workload"
	"fscache/internal/xrand"
)

// tiny returns an even smaller scale than Quick for unit tests.
func tiny() Scale {
	return Scale{
		Name:           "tiny",
		L2Lines:        8192,
		PartLines:      1024,
		SubjectLines:   256,
		TraceLen:       6000,
		AnalyticLines:  4096,
		Insertions:     60000,
		L1Lines:        128,
		WorkloadShrink: 8,
		Seed:           20140621,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table2", "fig2a", "fig2bc", "fig3", "fig4", "fig5",
		"fig6", "fig7", "sens-l", "sens-delta", "abl-fs", "abl-r", "abl-way", "abl-fault",
		"resize", "util"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, r := range reg {
		if r.ID != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, r.ID, want[i])
		}
		if r.Desc == "" || r.Run == nil {
			t.Errorf("registry entry %q incomplete", r.ID)
		}
	}
	if _, err := ByID("fig3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTable2Prints(t *testing.T) {
	var buf bytes.Buffer
	Table2(Quick()).Print(&buf)
	for _, want := range []string{"Table II", "16-way", "H3 indexing", "32 GB/s"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

// Fig. 2a's claim: PF's AEF decreases monotonically-ish with N, from near
// the R/(R+1) optimum toward the 0.5 worst case.
// Build panics on exactly what Check reports, and every array builds at a
// line count Check accepts.
func TestBuildPanicsOnCheck(t *testing.T) {
	for _, spec := range []CacheSpec{
		{Lines: 1024, Array: Array16Way, Scheme: "bogus", Parts: 2},
		{Lines: 1024, Array: "bogus", Scheme: SchemeFS, Parts: 2},
		{Lines: 1000, Array: Array16Way, Scheme: SchemeFS, Parts: 2},
		{Lines: 8, Array: ArrayRandom16, Scheme: SchemePF, Parts: 2},
		{Lines: 32, Array: Array16Way, Ways: 8, Scheme: SchemeWayPart, Parts: 2},
	} {
		err := spec.Check()
		if err == nil {
			t.Errorf("%+v: Check accepted it", spec)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != "experiments: "+err.Error() {
					t.Errorf("%+v: Build recovered %v, want Check's %q", spec, r, err)
				}
			}()
			Build(spec)
		}()
	}
	for _, a := range []ArrayKind{Array16Way, ArrayRandom16, ArrayFullyAssc, ArrayDirect, ArrayZ4, ArraySkew8} {
		spec := CacheSpec{Lines: 16, Array: a, Rank: futility.LRU, Scheme: SchemeFS, Parts: 2}
		if err := spec.Check(); err != nil {
			t.Errorf("%s at 16 lines: %v", a, err)
			continue
		}
		Build(spec)
	}
	// The ideal scheme's fully-associative array takes any positive count.
	if err := (CacheSpec{Lines: 1000, Array: Array16Way, Scheme: SchemeFullAssoc, Parts: 2}).Check(); err != nil {
		t.Errorf("fullassoc at 1000 lines: %v", err)
	}
}

func TestFig2aShape(t *testing.T) {
	s := tiny()
	res := Fig2a(s, "mcf")
	if len(res.Rows) != len(Fig2PartCounts) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first := res.Rows[0]
	last := res.Rows[len(res.Rows)-1]
	if first.N != 1 || last.N != 32 {
		t.Fatalf("row order wrong: %v..%v", first.N, last.N)
	}
	if first.AEF < 0.85 {
		t.Errorf("N=1 AEF = %v, want near 0.94", first.AEF)
	}
	if last.AEF > first.AEF-0.2 {
		t.Errorf("N=32 AEF = %v did not collapse from %v", last.AEF, first.AEF)
	}
	if last.AEF < 0.45 {
		t.Errorf("N=32 AEF = %v below the 0.5 worst case", last.AEF)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "mcf") {
		t.Error("print output missing benchmark name")
	}
}

// Fig. 2b/2c's claim: for the associativity-sensitive mcf, misses grow and
// IPC drops as N grows; for streaming lbm both stay nearly flat.
func TestFig2bcShape(t *testing.T) {
	res := Fig2bc(goldenScale(), []string{"mcf", "lbm"})
	checkGolden(t, goldenFile("fig2bc"), res)
	byKey := map[string]Fig2Row{}
	for _, row := range res.Rows {
		byKey[row.Bench+string(rune(row.N))] = row
	}
	mcf1 := byKey["mcf"+string(rune(1))]
	mcf32 := byKey["mcf"+string(rune(32))]
	lbm1 := byKey["lbm"+string(rune(1))]
	lbm32 := byKey["lbm"+string(rune(32))]
	mcfGrowth := float64(mcf32.Misses) / float64(mcf1.Misses)
	lbmGrowth := float64(lbm32.Misses) / float64(lbm1.Misses)
	if mcfGrowth < 1.05 {
		t.Errorf("mcf misses grew only %.3f× from N=1 to N=32", mcfGrowth)
	}
	if lbmGrowth > 1.05 {
		t.Errorf("lbm misses grew %.3f×, want flat", lbmGrowth)
	}
	if mcf32.IPC >= mcf1.IPC {
		t.Errorf("mcf IPC did not drop: %v → %v", mcf1.IPC, mcf32.IPC)
	}
	if mcfGrowth <= lbmGrowth {
		t.Errorf("sensitivity ordering violated: mcf %.3f ≤ lbm %.3f", mcfGrowth, lbmGrowth)
	}
}

func TestFig3Values(t *testing.T) {
	res := Fig3()
	if len(res.Points) != 20 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// α₂ decreases along S₂ for fixed I₂ and increases along I₂.
	for i := 0; i < 20; i += 5 {
		for j := i + 1; j < i+5; j++ {
			if res.Points[j].Feasible && res.Points[j-1].Feasible &&
				res.Points[j].Alpha2 >= res.Points[j-1].Alpha2 {
				t.Fatalf("α₂ not decreasing in S₂ at %d", j)
			}
		}
	}
	// Top-left anchor ≈ 2.8.
	var anchor Fig3Point
	for _, p := range res.Points {
		if p.I2 == 0.9 && p.S2 == 0.20 {
			anchor = p
		}
	}
	if !anchor.Feasible || anchor.Alpha2 < 2.5 || anchor.Alpha2 > 3.0 {
		t.Fatalf("anchor α₂ = %v, want ≈2.8", anchor.Alpha2)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "alpha2") {
		t.Error("print missing header")
	}
}

// Fig. 4's claims: (1) FS's unscaled big partition keeps near-unpartitioned
// associativity; (2) PF's small partition is much worse than FS's; (3) FS
// sizes stay near targets.
func TestFig4Shape(t *testing.T) {
	res := Fig4(tiny())
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	get := func(scheme SchemeName, s1 float64, part int) Fig4Row {
		for _, r := range res.Rows {
			if r.Scheme == scheme && r.S1 == s1 && r.Part == part {
				return r
			}
		}
		t.Fatalf("missing row %v %v %v", scheme, s1, part)
		return Fig4Row{}
	}
	fsBig := get("fs-fixed", 0.9, 0)
	fsSmall := get("fs-fixed", 0.9, 1)
	pfSmall := get(SchemePF, 0.9, 1)
	if fsBig.AEF < 0.85 {
		t.Errorf("FS unscaled partition AEF = %v, want ≈0.94", fsBig.AEF)
	}
	if fsSmall.AEF <= pfSmall.AEF {
		t.Errorf("FS small-partition AEF %v not above PF's %v", fsSmall.AEF, pfSmall.AEF)
	}
	if fsBig.Size < 0.82 || fsBig.Size > 0.98 {
		t.Errorf("FS big partition size fraction %v, want ≈0.9", fsBig.Size)
	}
}

// Fig. 5's claims: PF's MAD ≈ 0; FS's MAD is bounded and worse at I₁ = 0.5
// than at I₁ = 0.9; the analytic model is in the right range.
func TestFig5Shape(t *testing.T) {
	res := Fig5(tiny())
	get := func(scheme SchemeName, i1 float64) Fig5Row {
		for _, r := range res.Rows {
			if r.Scheme == scheme && r.I1 == i1 {
				return r
			}
		}
		t.Fatalf("missing row %v %v", scheme, i1)
		return Fig5Row{}
	}
	pf5 := get(SchemePF, 0.5)
	fs5 := get("fs-fixed", 0.5)
	fs9 := get("fs-fixed", 0.9)
	if pf5.MAD > 2 {
		t.Errorf("PF MAD = %v, want < 2", pf5.MAD)
	}
	if fs5.MAD <= pf5.MAD {
		t.Errorf("FS MAD %v not above PF %v", fs5.MAD, pf5.MAD)
	}
	if fs9.MAD >= fs5.MAD {
		t.Errorf("MAD(I1=0.9)=%v not below MAD(I1=0.5)=%v", fs9.MAD, fs5.MAD)
	}
	// Deviation stays a small fraction of the partition.
	if fs5.MAD > float64(tiny().AnalyticLines)/2*0.05 {
		t.Errorf("FS MAD = %v, more than 5%% of partition", fs5.MAD)
	}
	if fs5.ModelMAD <= 0 {
		t.Error("analytic model MAD missing")
	}
	if fs5.ModelMAD > 4*fs5.MAD || fs5.MAD > 4*fs5.ModelMAD {
		t.Errorf("model MAD %v far from measured %v", fs5.ModelMAD, fs5.MAD)
	}
}

// Fig. 6's claims: mcf speedup > 1 everywhere; lbm ≈ 1; gromacs sensitive
// only at small sizes; under LRU cactusADM drops below 1 somewhere while
// under OPT nothing does.
func TestFig6Shape(t *testing.T) {
	res := Fig6(tiny())
	minSpeed := map[string]float64{}
	maxSpeed := map[string]float64{}
	gromacsSmall, gromacsBig := 0.0, 0.0
	sizes := Fig6Sizes(tiny())
	for _, row := range res.Rows {
		key := string(rune(int(row.Rank))) + row.Bench
		if v, ok := minSpeed[key]; !ok || row.Speedup < v {
			minSpeed[key] = row.Speedup
		}
		if v, ok := maxSpeed[key]; !ok || row.Speedup > v {
			maxSpeed[key] = row.Speedup
		}
		if row.Rank == futility.OPT && row.Bench == "gromacs" {
			if row.Lines == sizes[0] {
				gromacsSmall = row.Speedup
			}
			if row.Lines == sizes[len(sizes)-1] {
				gromacsBig = row.Speedup
			}
		}
	}
	optKey := string(rune(int(futility.OPT)))
	lruKey := string(rune(int(futility.LRU)))
	if maxSpeed[optKey+"mcf"] < 1.1 {
		t.Errorf("mcf max OPT speedup = %v, want sensitive", maxSpeed[optKey+"mcf"])
	}
	if maxSpeed[optKey+"lbm"] > 1.1 || minSpeed[optKey+"lbm"] < 0.95 {
		t.Errorf("lbm OPT speedup range [%v,%v], want ≈1",
			minSpeed[optKey+"lbm"], maxSpeed[optKey+"lbm"])
	}
	if gromacsSmall < gromacsBig+0.05 {
		t.Errorf("gromacs small-size speedup %v not above big-size %v",
			gromacsSmall, gromacsBig)
	}
	// OPT never loses from associativity (§VI: OPT ranks re-reference
	// potential correctly).
	for _, row := range res.Rows {
		if row.Rank == futility.OPT && row.Speedup < 0.97 {
			t.Errorf("OPT %s@%d speedup %v < 1", row.Bench, row.Lines, row.Speedup)
		}
	}
	// LRU-adverse cactusADM must lose somewhere under LRU.
	if minSpeed[lruKey+"cactusADM"] >= 1.0 {
		t.Errorf("cactusADM LRU min speedup = %v, want < 1", minSpeed[lruKey+"cactusADM"])
	}
}

// Fig. 7's claims at a reduced sweep: FS and PF hold subject occupancy at
// target; PriSM undershoots badly; FS's subject AEF beats PF's; FullAssoc
// is the AEF ceiling.
func TestFig7Shape(t *testing.T) {
	s := goldenScale()
	res := Fig7Sweep(s, []int{4, 16, 31}, nil, []futility.Kind{futility.CoarseLRU})
	checkGolden(t, goldenFile("fig7"), res)
	get := func(scheme SchemeName, nsubj int) Fig7Row {
		for _, r := range res.Rows {
			if r.Scheme == scheme && r.Subjects == nsubj {
				return r
			}
		}
		t.Fatalf("missing row %v %d", scheme, nsubj)
		return Fig7Row{}
	}
	for _, nsubj := range []int{4, 16} {
		fs := get(SchemeFS, nsubj)
		pf := get(SchemePF, nsubj)
		prism := get(SchemePriSM, nsubj)
		fa := get(SchemeFullAssoc, nsubj)
		if fs.OccupancyFrac < 0.9 || fs.OccupancyFrac > 1.15 {
			t.Errorf("N=%d: FS occupancy %v, want ≈1", nsubj, fs.OccupancyFrac)
		}
		if pf.OccupancyFrac < 0.9 || pf.OccupancyFrac > 1.15 {
			t.Errorf("N=%d: PF occupancy %v, want ≈1", nsubj, pf.OccupancyFrac)
		}
		if prism.OccupancyFrac > fs.OccupancyFrac-0.02 {
			t.Errorf("N=%d: PriSM occupancy %v not clearly below FS %v",
				nsubj, prism.OccupancyFrac, fs.OccupancyFrac)
		}
		if fs.SubjectAEF <= pf.SubjectAEF {
			t.Errorf("N=%d: FS AEF %v not above PF %v", nsubj, fs.SubjectAEF, pf.SubjectAEF)
		}
		if fa.SubjectAEF < 0.95 {
			t.Errorf("N=%d: FullAssoc AEF %v, want ≈1", nsubj, fa.SubjectAEF)
		}
	}
	// Vantage must be skipped when subjects exceed the managed region.
	last := get(SchemeVantage, 31)
	if s.SubjectLines*31 > s.L2Lines*9/10 && !last.Skipped {
		t.Error("Vantage not skipped at 31 subjects")
	}
	sum := res.Summarize(futility.CoarseLRU)
	if len(sum.MeanSubjectIPC) == 0 {
		t.Fatal("empty summary")
	}
	var buf bytes.Buffer
	sum.Print(&buf)
	if !strings.Contains(buf.String(), "FS over") {
		t.Error("summary print missing headline")
	}
}

func TestSensSweeps(t *testing.T) {
	s := tiny()
	li := SensInterval(s)
	if len(li.Rows) != len(SensIntervals) {
		t.Fatalf("interval rows = %d", len(li.Rows))
	}
	ld := SensDelta(s)
	if len(ld.Rows) != len(SensDeltas) {
		t.Fatalf("delta rows = %d", len(ld.Rows))
	}
	for _, row := range append(li.Rows, ld.Rows...) {
		if row.OccFrac < 0.85 || row.OccFrac > 1.2 {
			t.Errorf("l=%d Δ=%v: occupancy %v far from target", row.Interval, row.Delta, row.OccFrac)
		}
		if row.AEF < 0.5 {
			t.Errorf("l=%d Δ=%v: AEF %v collapsed", row.Interval, row.Delta, row.AEF)
		}
	}
	var buf bytes.Buffer
	li.Print(&buf)
	ld.Print(&buf)
}

func TestAblationFS(t *testing.T) {
	res := AblationFS(tiny())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.OccErr > 0.15 {
			t.Errorf("%s: occupancy error %v", row.Variant, row.OccErr)
		}
		if row.AEF0 < 0.6 {
			t.Errorf("%s: AEF0 %v", row.Variant, row.AEF0)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
}

// A2's claim: PF's associativity collapses as R shrinks toward the
// partition count while FS's stays high; both enforce sizes.
func TestAblationR(t *testing.T) {
	res := AblationR(tiny())
	if len(res.Rows) != len(AblationRCounts) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var r2, r64 AblationRRow
	for _, row := range res.Rows {
		if row.R == 2 {
			r2 = row
		}
		if row.R == 64 {
			r64 = row
		}
		if row.FSAEF < row.PFAEF-0.05 {
			t.Errorf("R=%d: FS AEF %v below PF %v", row.R, row.FSAEF, row.PFAEF)
		}
	}
	if r64.PFAEF <= r2.PFAEF {
		t.Errorf("PF AEF not improving with R: R=2 %v, R=64 %v", r2.PFAEF, r64.PFAEF)
	}
	var buf bytes.Buffer
	res.Print(&buf)
}

func TestBuildValidation(t *testing.T) {
	for _, fn := range []func(){
		func() {
			Build(CacheSpec{Lines: 64, Array: "bogus", Rank: futility.LRU,
				Scheme: SchemePF, Parts: 1})
		},
		func() {
			Build(CacheSpec{Lines: 64, Array: Array16Way, Rank: futility.LRU,
				Scheme: "bogus", Parts: 1})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

// Smooth-resizing claims: every replacement-based scheme converges to the
// new targets without flushing, FS/PF converge, and FS's transition does
// not destroy associativity.
func TestResizeShape(t *testing.T) {
	res := Resize(tiny())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Scheme == SchemePriSM {
			// PriSM's sizing is loose (abnormality); only require progress.
			if row.FinalFrac < 0.7 {
				t.Errorf("prism final/target = %v", row.FinalFrac)
			}
			continue
		}
		if row.ConvergeInsertions < 0 {
			t.Errorf("%s never converged (final %v)", row.Scheme, row.FinalFrac)
		}
		if row.FinalFrac < 0.9 || row.FinalFrac > 1.1 {
			t.Errorf("%s final/target = %v", row.Scheme, row.FinalFrac)
		}
	}
	var fs, pf ResizeRow
	for _, row := range res.Rows {
		if row.Scheme == SchemeFS {
			fs = row
		}
		if row.Scheme == SchemePF {
			pf = row
		}
	}
	if fs.TransitionAEF < pf.TransitionAEF {
		t.Errorf("FS transition AEF %v below PF %v", fs.TransitionAEF, pf.TransitionAEF)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Resize") {
		t.Error("print missing header")
	}
}

// The utility stack must beat the equal split on a heterogeneous mix, must
// allocate more capacity to reuse-heavy threads than to streamers, and must
// hand out exactly the cache with every thread at its lines/64 floor.
func TestUtilShape(t *testing.T) {
	scale := tiny()
	res := Util(scale)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byStack := map[string]UtilRow{}
	for _, row := range res.Rows {
		byStack[row.Stack] = row
	}
	eq := byStack["equal+fs"]
	ut := byStack["utility+fs"]
	if ut.Throughput < eq.Throughput*0.98 {
		t.Errorf("utility throughput %v clearly below equal %v", ut.Throughput, eq.Throughput)
	}
	// mcf (index 0, reuse-heavy) gets more than lbm (index 2, streaming).
	if ut.Targets[0] <= ut.Targets[2] {
		t.Errorf("utility targets did not favor reuse: %v", ut.Targets)
	}
	sum := 0
	for _, tg := range ut.Targets {
		if tg < scale.L2Lines/64 {
			t.Errorf("utility target %d below the %d-line floor: %v", tg, scale.L2Lines/64, ut.Targets)
		}
		sum += tg
	}
	if sum != scale.L2Lines {
		t.Errorf("utility targets sum to %d, cache has %d: %v", sum, scale.L2Lines, ut.Targets)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "utility+fs") {
		t.Error("print missing stack name")
	}
}

func TestUMONCurveMonotone(t *testing.T) {
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen := prof.NewGenerator(1, 0)
	var u umon
	for i := 0; i < 100000; i++ {
		u.observe(gen.Next().Addr)
	}
	curve := u.curve()
	if len(curve) != umonWays+1 {
		t.Fatalf("curve length %d", len(curve))
	}
	if curve[0] != 0 {
		t.Fatal("curve[0] != 0")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("curve not monotone at %d: %v", i, curve)
		}
	}
	if curve[umonWays] == 0 {
		t.Fatal("reuse-heavy workload recorded no shadow hits")
	}
}

// synthTrace is an n-access trace whose i-th line address is addr(i).
func synthTrace(n int, addr func(i int) uint64) *trace.Trace {
	tr := &trace.Trace{Accesses: make([]trace.Access, n)}
	for i := range tr.Accesses {
		tr.Accesses[i].Addr = addr(i)
	}
	return tr
}

// reuseTrace draws n accesses uniformly over a set of lines.
func reuseTrace(seed uint64, n, lines int) *trace.Trace {
	rng := xrand.New(seed)
	return synthTrace(n, func(int) uint64 { return rng.Uint64() % uint64(lines) })
}

// streamTrace touches n distinct lines once each.
func streamTrace(n int) *trace.Trace {
	return synthTrace(n, func(i int) uint64 { return uint64(i) })
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestUtilTargetsFavorReuse(t *testing.T) {
	tg := utilTargets(8192, []*trace.Trace{reuseTrace(3, 200000, 2048), streamTrace(200000)})
	if len(tg) != 2 {
		t.Fatalf("targets = %v", tg)
	}
	if tg[0] <= tg[1] {
		t.Fatalf("utility gave reuse %d, stream %d", tg[0], tg[1])
	}
	if sumInts(tg) != 8192 {
		t.Fatalf("allocated %d of 8192 lines: %v", sumInts(tg), tg)
	}
}

// A thread that never accesses the cache still keeps its lines/64 floor.
func TestUtilTargetsFloors(t *testing.T) {
	const lines = 1024
	tg := utilTargets(lines, []*trace.Trace{reuseTrace(5, 10000, 64), {}})
	for i, v := range tg {
		if v < lines/64 {
			t.Fatalf("partition %d below floor: %v", i, tg)
		}
	}
	if sumInts(tg) != lines {
		t.Fatalf("allocated %d of %d lines: %v", sumInts(tg), lines, tg)
	}
}

func TestUtilTargetsAllocateFullCapacity(t *testing.T) {
	traces := []*trace.Trace{reuseTrace(9, 50000, 512), streamTrace(50000)}
	// Small chunks (32 lines → 1-line chunks, 96 → 3) round the lines/64
	// floor differently from the power-of-two sizes.
	for _, lines := range []int{32, 96, 1024, 2048, 8192} {
		tg := utilTargets(lines, traces)
		if sumInts(tg) != lines {
			t.Fatalf("utilTargets(%d) allocated %d lines: %v", lines, sumInts(tg), tg)
		}
	}
}

// A hog whose every way pays wins all it can, but the streams beside it
// keep their floors and the cache is handed out exactly.
func TestUtilTargetsFloorsSurviveHog(t *testing.T) {
	const lines = 1024
	traces := []*trace.Trace{reuseTrace(21, 100000, 4096)}
	for i := 0; i < 3; i++ {
		traces = append(traces, streamTrace(100000))
	}
	tg := utilTargets(lines, traces)
	for i, v := range tg {
		if v < lines/64 {
			t.Fatalf("partition %d below floor beside the hog: %v", i, tg)
		}
	}
	if sumInts(tg) != lines {
		t.Fatalf("allocated %d of %d lines: %v", sumInts(tg), lines, tg)
	}
	if tg[0] <= lines/64 {
		t.Fatalf("hog thread should keep more than the floor: %v", tg)
	}
}

// A3's claims: way-partitioning cannot represent partition 0's half-share
// target at small N (occupancy quantized to a whole way), its AEF is far
// below FS's, and it cannot host more partitions than ways at all.
func TestAblationWay(t *testing.T) {
	res := AblationWay(tiny())
	if len(res.Rows) != len(AblationWayParts) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Parts > 16 {
			if !row.Skipped {
				t.Errorf("N=%d not skipped", row.Parts)
			}
			continue
		}
		if row.Skipped {
			t.Errorf("N=%d skipped", row.Parts)
			continue
		}
		if row.FSAEF <= row.WayAEF {
			t.Errorf("N=%d: FS AEF %v not above waypart %v", row.Parts, row.FSAEF, row.WayAEF)
		}
		if row.FSOcc < 0.9 || row.FSOcc > 1.1 {
			t.Errorf("N=%d: FS occupancy %v", row.Parts, row.FSOcc)
		}
	}
	// Granularity: at N=2 the half-share target (1/4 cache) quantizes to
	// whole ways; partition 0 ends up away from its target by at least a
	// half-way worth of error... at N=2 target 1024 of 4096 = 4 ways exact;
	// at N=4 target 512 of 4096 = 2 ways exact; at N=8 target 256 = 1 way
	// exact. The interesting case: the apportionment floor forces ≥1 way
	// (256 lines at N=8) — check the reported occupancy reflects whole-way
	// quantization rather than failing.
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "way-AEF") {
		t.Error("print missing header")
	}
}
