package experiments

import (
	"io"

	"fscache/internal/alloc"
	"fscache/internal/baselines"
	"fscache/internal/futility"
	"fscache/internal/sim"
	"fscache/internal/stats"
	"fscache/internal/trace"
)

// Fig. 7 and the §VIII performance comparison (Fig. 8): a QoS-enabled
// 32-core CMP. Each mix has N_subject subject threads running the
// associativity-sensitive gromacs with a 256 KB (4096-line) guarantee and
// 32 − N_subject background threads running the memory-intensive lbm
// splitting the remainder. N_subject sweeps 1..31 in steps of 3. Schemes:
// PF, PriSM, Vantage, FS, FullAssoc; rankings: coarse-grain timestamp LRU
// and ideal OPT. Vantage is excluded at N_subject = 31 (its managed region
// cannot cover 97% of capacity).
//
// 7a: average occupancy of subject threads relative to target.
// 7b: average eviction futility (AEF) of subject threads.
// Fig. 8 (headline): subject IPC and overall throughput by scheme.

// Fig7Threads is the CMP's thread count (Table II: 32 cores).
const Fig7Threads = 32

// Fig7SubjectCounts returns the swept subject counts 1, 4, ..., 31.
func Fig7SubjectCounts() []int {
	out := make([]int, 0, 11)
	for n := 1; n <= 31; n += 3 {
		out = append(out, n)
	}
	return out
}

// Fig7Row is one (scheme, ranking, N_subject) run.
type Fig7Row struct {
	Scheme   SchemeName
	Rank     futility.Kind
	Subjects int
	// OccupancyFrac is mean subject occupancy / target.
	OccupancyFrac float64
	// SubjectAEF is the mean AEF over subject partitions.
	SubjectAEF float64
	// SubjectIPC and BackgroundIPC are per-group mean IPCs.
	SubjectIPC    float64
	BackgroundIPC float64
	// Throughput is the sum of all thread IPCs.
	Throughput float64
	// Abnormality is PriSM's abnormality rate (PriSM rows only).
	Abnormality float64
	// Skipped marks configurations a scheme cannot run (Vantage at 97%).
	Skipped bool
}

// Fig7Result collects the sweep.
type Fig7Result struct {
	Scale Scale
	Rows  []Fig7Row
}

// Fig7 runs the full sweep for the given schemes and rankings; nil selects
// the paper's sets.
func Fig7(scale Scale, schemes []SchemeName, ranks []futility.Kind) Fig7Result {
	return Fig7Sweep(scale, nil, schemes, ranks)
}

// Fig7Sweep is Fig7 with an explicit subject-count list (nil selects the
// paper's 1, 4, ..., 31).
func Fig7Sweep(scale Scale, counts []int, schemes []SchemeName, ranks []futility.Kind) Fig7Result {
	if counts == nil {
		counts = Fig7SubjectCounts()
	}
	if schemes == nil {
		schemes = AllQoSSchemes()
	}
	if ranks == nil {
		ranks = []futility.Kind{futility.CoarseLRU, futility.OPT}
	}
	res := Fig7Result{Scale: scale}
	// Build per-thread traces once per rank (next-use only needed for OPT);
	// thread t's stream is fixed across schemes so comparisons are paired.
	for _, rank := range ranks {
		for _, nSubj := range counts {
			traces := fig7Traces(scale, nSubj, rank)
			rows := make([]Fig7Row, len(schemes))
			rank, nSubj := rank, nSubj
			parallelFor(len(schemes), func(i int) {
				rows[i] = runFig7Cell(scale, schemes[i], rank, nSubj, traces)
			})
			res.Rows = append(res.Rows, rows...)
		}
	}
	return res
}

// fig7Traces builds the mix's per-thread L2 traces: subjects first.
func fig7Traces(scale Scale, nSubj int, rank futility.Kind) []*trace.Trace {
	traces := make([]*trace.Trace, Fig7Threads)
	for t := 0; t < Fig7Threads; t++ {
		bench := "lbm"
		if t < nSubj {
			bench = "gromacs"
		}
		gen := profileGenerator(scale, bench, seedStream(scale.Seed, "fig7"), t)
		l1 := sim.NewL1(scale.L1Lines)
		traces[t] = sim.BuildL2Trace(gen, l1, scale.TraceLen)
		if rank == futility.OPT {
			traces[t].ComputeNextUse()
		}
	}
	return traces
}

func runFig7Cell(scale Scale, scheme SchemeName, rank futility.Kind, nSubj int, traces []*trace.Trace) Fig7Row {
	row := Fig7Row{Scheme: scheme, Rank: rank, Subjects: nSubj}
	// Subjects get their guarantee, the background splits the rest of the
	// capacity the scheme manages: Vantage only manages (1−u) of the cache.
	managed := scale.L2Lines
	if scheme == SchemeVantage {
		managed = baselines.VantageManagedLines(scale.L2Lines)
		if nSubj*scale.SubjectLines > managed {
			row.Skipped = true
			return row
		}
	}
	targets := make([]int, Fig7Threads)
	for t := 0; t < nSubj; t++ {
		targets[t] = scale.SubjectLines
	}
	alloc.EvenSplit(targets[nSubj:], managed-nSubj*scale.SubjectLines)
	b := Build(CacheSpec{
		Lines:  scale.L2Lines,
		Array:  Array16Way,
		Rank:   rank,
		Scheme: scheme,
		Parts:  Fig7Threads,
		Seed:   seedStream(scale.Seed, "fig7"+string(scheme)),
	})
	b.SetTargets(targets)

	m := sim.NewMulticore(b.Cache, traces)
	m.SetWarmup(0.3) // exclude the cold fill, as the paper's long runs do
	results := m.Run()

	var subjIPC, bgIPC, occ []float64
	aefSum, aefN := 0.0, uint64(0)
	for t := 0; t < Fig7Threads; t++ {
		if t < nSubj {
			subjIPC = append(subjIPC, results[t].IPC())
			occ = append(occ, b.Cache.MeanOccupancy(t)/float64(scale.SubjectLines))
			aefSum += b.Cache.Stats(t).EvictFutility.Sum()
			aefN += b.Cache.Stats(t).EvictFutility.N()
		} else {
			bgIPC = append(bgIPC, results[t].IPC())
		}
		row.Throughput += results[t].IPC()
	}
	row.SubjectIPC = stats.Mean(subjIPC)
	row.BackgroundIPC = stats.Mean(bgIPC)
	row.OccupancyFrac = stats.Mean(occ)
	// AEF pooled over all subject evictions: partitions that never evicted
	// (e.g. FullAssoc guarantees) contribute no samples rather than zeros.
	row.SubjectAEF = 1 // no subject line was ever evicted
	if aefN > 0 {
		row.SubjectAEF = aefSum / float64(aefN)
	}
	if b.PriSM != nil {
		row.Abnormality = b.PriSM.AbnormalityRate()
	}
	return row
}

// Print renders one row per (rank, N_subject, scheme).
func (r Fig7Result) Print(w io.Writer) {
	fprintf(w, "Fig.7/Fig.8 (%s scale): QoS on %d threads — gromacs subjects (guaranteed), lbm background\n",
		r.Scale.Name, Fig7Threads)
	fprintf(w, "%-6s %5s %-10s %9s %8s %9s %8s %9s %7s\n",
		"rank", "Nsubj", "scheme", "occ/tgt", "AEF", "subjIPC", "bgIPC", "thruput", "abnorm")
	for _, row := range r.Rows {
		if row.Skipped {
			fprintf(w, "%-6v %5d %-10s %9s\n", row.Rank, row.Subjects, row.Scheme, "skipped")
			continue
		}
		fprintf(w, "%-6v %5d %-10s %9.3f %8.3f %9.4f %8.4f %9.3f %7.2f\n",
			row.Rank, row.Subjects, row.Scheme, row.OccupancyFrac, row.SubjectAEF,
			row.SubjectIPC, row.BackgroundIPC, row.Throughput, row.Abnormality)
	}
	// Append the Fig. 8 headline for every ranking present.
	seen := map[futility.Kind]bool{}
	for _, row := range r.Rows {
		if !seen[row.Rank] {
			seen[row.Rank] = true
			r.Summarize(row.Rank).Print(w)
		}
	}
}

// Fig8Summary condenses Fig. 7 runs into the paper's headline comparison:
// per scheme (for one ranking), the mean subject IPC across mixes and the
// best-case advantage of FS.
type Fig8Summary struct {
	Rank futility.Kind
	// MeanSubjectIPC maps scheme → mean subject IPC across mixes.
	MeanSubjectIPC map[SchemeName]float64
	// FSOverVantagePct and FSOverPriSMPct are max per-mix subject-IPC
	// advantages of FS, in percent (paper: up to 6.0% and 13.7%).
	FSOverVantagePct float64
	FSOverPriSMPct   float64
}

// Summarize computes the Fig. 8 headline from Fig. 7 rows for one ranking.
func (r Fig7Result) Summarize(rank futility.Kind) Fig8Summary {
	s := Fig8Summary{Rank: rank, MeanSubjectIPC: map[SchemeName]float64{}}
	count := map[SchemeName]int{}
	fsBySubj := map[int]float64{}
	for _, row := range r.Rows {
		if row.Rank != rank || row.Skipped {
			continue
		}
		s.MeanSubjectIPC[row.Scheme] += row.SubjectIPC
		count[row.Scheme]++
		if row.Scheme == SchemeFS {
			fsBySubj[row.Subjects] = row.SubjectIPC
		}
	}
	for k, n := range count {
		s.MeanSubjectIPC[k] /= float64(n)
	}
	for _, row := range r.Rows {
		if row.Rank != rank || row.Skipped {
			continue
		}
		fs, ok := fsBySubj[row.Subjects]
		if !ok || row.SubjectIPC <= 0 {
			continue
		}
		adv := (fs/row.SubjectIPC - 1) * 100
		switch row.Scheme {
		case SchemeVantage:
			if adv > s.FSOverVantagePct {
				s.FSOverVantagePct = adv
			}
		case SchemePriSM:
			if adv > s.FSOverPriSMPct {
				s.FSOverPriSMPct = adv
			}
		}
	}
	return s
}

// Print renders the headline summary.
func (s Fig8Summary) Print(w io.Writer) {
	fprintf(w, "Fig.8 headline (%v ranking): mean subject IPC by scheme\n", s.Rank)
	for _, scheme := range AllQoSSchemes() {
		if v, ok := s.MeanSubjectIPC[scheme]; ok {
			fprintf(w, "  %-10s %8.4f\n", scheme, v)
		}
	}
	fprintf(w, "  FS over Vantage (max): %+.1f%%   FS over PriSM (max): %+.1f%%\n",
		s.FSOverVantagePct, s.FSOverPriSMPct)
}
