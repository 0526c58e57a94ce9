package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Comparison of two reports: one row per workload × end-to-end metric, with
// each side's reported value and the quartiles of its trials, the metric's
// bound, and a verdict. "worse" means the new value is worse than the old by
// more than the bound; where either side's own spread exceeds the bound the
// row is "unresolved" — unless every new trial beats every old one — because
// a difference smaller than the noise says nothing.
//
// The demoted timing metrics (untracedRows) follow with the same columns and
// "report-only" for a verdict: the numbers are there to be read, and on the
// machine that demoted them a verdict would mostly report the machine.
//
// A fixed-work workload is held to more when both reports ran the same seed:
// its quality metrics, core.* counts and outcome digest are functions of the
// seed, so any difference is a change in behaviour. Those rows read "same"
// or "changed", and a "changed" makes the comparison fail.

type verdict string

const (
	vBetter     verdict = "better"
	vWithin     verdict = "within"
	vWorse      verdict = "worse"
	vUnresolved verdict = "unresolved"
	vSame       verdict = "same"
	vChanged    verdict = "changed"
	vReportOnly verdict = "report-only"
)

// judge compares one metric on one workload.
func judge(m metricDef, old, cur value) verdict {
	// gain > 0 when cur is better, as a share of the old value.
	gain := 0.0
	if old.Value > 0 {
		gain = (cur.Value - old.Value) / old.Value
	}
	if !m.Higher {
		gain = -gain
	}
	if spread(old.Trials) > m.Bound || spread(cur.Trials) > m.Bound {
		if allBetter(m, old.Trials, cur.Trials) {
			return vBetter
		}
		return vUnresolved
	}
	switch {
	case gain < -m.Bound:
		return vWorse
	case gain > m.Bound:
		return vBetter
	}
	return vWithin
}

// exact is the verdict of a row that may not differ at all.
func exact(same bool) verdict {
	if same {
		return vSame
	}
	return vChanged
}

// allBetter reports whether every trial of cur is better than every trial
// of old.
func allBetter(m metricDef, old, cur []float64) bool {
	if len(old) == 0 || len(cur) == 0 {
		return false
	}
	so, sc := sortedCopy(old), sortedCopy(cur)
	if m.Higher {
		return sc[0] > so[len(so)-1]
	}
	return sc[len(sc)-1] < so[0]
}

// printComparison prints the table and returns the number of "changed" rows.
func printComparison(w *bufio.Writer, old, cur *report) int {
	fmt.Fprintf(w, "\ncompare: old %s (seed %d, calib %.2f ns)  new %s (seed %d, calib %.2f ns)\n",
		old.Env.Commit, old.Env.Seed, old.Env.CalibNS, cur.Env.Commit, cur.Env.Seed, cur.Env.CalibNS)
	sameInputs := old.Env.Seed == cur.Env.Seed && old.Env.Smoke == cur.Env.Smoke
	if !sameInputs {
		fmt.Fprintln(w, "the reports ran different inputs: fixed-work outcomes are not compared")
	}
	fmt.Fprintf(w, "%-20s %-22s %12s %12s %12s | %12s %12s %12s | %6s %s\n",
		"workload", "metric", "old q1", "old", "old q3", "new q1", "new", "new q3", "bound", "verdict")
	counts := map[verdict]int{}
	for i := range workloads {
		def := &workloads[i]
		ro, rc := old.Workloads[def.Name], cur.Workloads[def.Name]
		if ro == nil || rc == nil {
			continue
		}
		mustRepeat := def.FixedWork && sameInputs
		row := func(m metricDef, vo, vc value, bound string, v verdict) {
			oq1, oq3 := quartiles(vo.Trials)
			cq1, cq3 := quartiles(vc.Trials)
			counts[v]++
			fmt.Fprintf(w, "%-20s %-22s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %6s %s\n",
				def.Name, m.Name, oq1, vo.Value, oq3, cq1, vc.Value, cq3, bound, v)
		}
		for _, m := range endToEnd {
			vo, vc := ro.EndToEnd[m.Name], rc.EndToEnd[m.Name]
			if mustRepeat && m.Kind == kindQuality {
				row(m, vo, vc, "0", exact(math.Float64bits(vo.Value) == math.Float64bits(vc.Value)))
				continue
			}
			row(m, vo, vc, fmt.Sprintf("%.2f", m.Bound), judge(m, vo, vc))
		}
		for _, m := range untracedRows {
			vo, vc := ro.PerLayer[m.Name], rc.PerLayer[m.Name]
			if m.Kind == kindTiming && len(vo.Trials) > 0 && len(vc.Trials) > 0 {
				row(m, vo, vc, "-", vReportOnly)
			}
		}
		if !mustRepeat {
			continue
		}
		for _, n := range exactCounts {
			v := exact(ro.Exact[n] == rc.Exact[n])
			counts[v]++
			fmt.Fprintf(w, "%-20s %-22s %12s %12d %12s | %12s %12d %12s | %6s %s\n",
				def.Name, n, "", ro.Exact[n], "", "", rc.Exact[n], "", "0", v)
		}
		v := exact(ro.Digest == rc.Digest)
		counts[v]++
		fmt.Fprintf(w, "%-20s %-22s %38s | %38s | %6s %s\n", def.Name, "digest", ro.Digest, rc.Digest, "0", v)
	}
	fmt.Fprintf(w, "verdicts: %d better, %d within, %d worse, %d unresolved, %d same, %d changed, %d report-only\n",
		counts[vBetter], counts[vWithin], counts[vWorse], counts[vUnresolved], counts[vSame], counts[vChanged], counts[vReportOnly])
	w.Flush()
	return counts[vChanged]
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(w *bufio.Writer, oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return err
	}
	if printComparison(w, old, cur) > 0 {
		return errChanged
	}
	return nil
}
