package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of a comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// verdict judges a change against its parent on one metric from paired
// runs (parent[i] ran next to change[i]). A gain needs the change to win
// at least nine tenths of the pairs and the medians to differ by more
// than the parent's interquartile range. A regression is a median worse
// by more than bound, the share of the parent's median the metric may
// lose; it is unresolved when either side's own spread exceeds the bound,
// unless every run of the change beats every run of the parent.
func verdict(parent, change []float64, higherBetter bool, bound float64) string {
	dir := 1.0
	if !higherBetter {
		dir = -1
	}
	wins := 0
	for i := range parent {
		if dir*(change[i]-parent[i]) > 0 {
			wins++
		}
	}
	medP, medC := median(parent), median(change)
	q1, q3 := quartiles(parent)
	if 10*wins >= 9*len(parent) && dir*(medC-medP) > q3-q1 {
		return verdictBetter
	}
	if relSpread(parent) > bound || relSpread(change) > bound {
		if allBetter(parent, change, dir) {
			return verdictSame
		}
		return verdictUnresolved
	}
	if loss := -dir * (medC - medP); loss > bound*math.Abs(medP) {
		return verdictWorse
	}
	return verdictSame
}

// relSpread is the interquartile range of xs as a share of its median,
// taken as 0 for a constant series.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / math.Abs(median(xs))
}

func allBetter(parent, change []float64, dir float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if dir*(c-p) <= 0 {
				return false
			}
		}
	}
	return true
}

// compareReports prints a verdict for every workload and end-to-end
// metric found in both report files and returns 1 on any regression.
func compareReports(cfg *config, parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readReports(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	change, err := readReports(changePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pairs := min(len(parent), len(change))
	if pairs == 0 {
		fmt.Fprintln(stderr, "compare: no runs to pair")
		return 2
	}
	fmt.Fprintf(stdout, "# %d paired runs; parent %s, change %s\n", pairs, parentPath, changePath)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tbound\tverdict")
	regressions := 0
	for _, w := range cfg.Workloads {
		for _, m := range cfg.Metrics {
			if m.Better == "" {
				continue // printed for reading only
			}
			var p, c []float64
			for i := 0; i < pairs; i++ {
				pv, pok := metricOf(parent[i], w.Name, m.Name)
				cv, cok := metricOf(change[i], w.Name, m.Name)
				if pok && cok {
					p, c = append(p, pv), append(c, cv)
				}
			}
			if len(p) == 0 {
				continue
			}
			v := verdict(p, c, m.Better == "higher", m.Bound)
			if v == verdictWorse {
				regressions++
			}
			pq1, pq3 := quartiles(p)
			cq1, cq3 := quartiles(c)
			delta := "n/a"
			if mp := median(p); mp != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(median(c)-mp)/math.Abs(mp))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, median(p), pq1, pq3, median(c), cq1, cq3, delta, 100*m.Bound, v)
		}
	}
	tw.Flush()
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regressions\n", regressions)
		return 1
	}
	return 0
}

func metricOf(rep runReport, workload, metric string) (float64, bool) {
	for _, wr := range rep.Workloads {
		if wr.Name == workload {
			v, ok := wr.Metrics[metric]
			return v, ok
		}
	}
	return 0, false
}
