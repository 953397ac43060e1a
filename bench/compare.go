package main

import (
	"fmt"
	"io"
)

// summary is one end-to-end metric of one workload over the untraced runs of
// one file.
type summary struct {
	n          int
	q1, q2, q3 float64
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.q2 == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.q2
}

func summarise(entries []entry) map[string]map[string]summary {
	vals := map[string]map[string][]float64{}
	for _, e := range entries {
		if e.Trace != 0 {
			continue
		}
		if vals[e.Workload] == nil {
			vals[e.Workload] = map[string][]float64{}
		}
		for name, v := range e.EndToEnd {
			vals[e.Workload][name] = append(vals[e.Workload][name], v.Value)
		}
	}
	out := map[string]map[string]summary{}
	for w, byMetric := range vals {
		out[w] = map[string]summary{}
		for name, v := range byMetric {
			s := summary{n: len(v), q1: v[0], q2: v[0], q3: v[0]}
			if len(v) > 1 {
				s.q1, s.q2, s.q3 = quartiles(v)
			}
			out[w][name] = s
		}
	}
	return out
}

// verdict compares the medians of a base and a change. A metric is worse when
// the change's median is worse than the base's by more than the bound; where
// either side's own runs spread wider than the bound, the pairing is
// unresolved, neither ok nor worse.
func verdict(d metricDef, base, change summary) string {
	if base.spread() > d.bound || change.spread() > d.bound {
		return "unresolved"
	}
	if d.better == "lower" && change.q2 > base.q2*(1+d.bound) {
		return "worse"
	}
	if d.better == "higher" && change.q2 < base.q2*(1-d.bound) {
		return "worse"
	}
	return "ok"
}

// compareFiles prints, for every end-to-end metric of every workload, the
// median and spread in each file, the ratio with its base, the bound and the
// verdict. It reports whether any pairing is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	entriesA, err := readEntries(pathA)
	if err != nil {
		return false, err
	}
	entriesB, err := readEntries(pathB)
	if err != nil {
		return false, err
	}
	a, b := summarise(entriesA), summarise(entriesB)
	anyWorse := false
	fmt.Fprintf(w, "A = %s, B = %s; ratio is B ÷ A of the medians\n", pathA, pathB)
	fmt.Fprintf(w, "%-16s %-13s %14s %8s %4s %14s %8s %4s %8s %6s  %s\n",
		"workload", "metric", "A median", "A spread", "n", "B median", "B spread", "n", "ratio", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			sa, okA := a[wl.name][d.name]
			sb, okB := b[wl.name][d.name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, sa, sb)
			if v == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-16s %-13s %14.6g %8.4f %4d %14.6g %8.4f %4d %8.4f %6.2f  %s (%s is better)\n",
				wl.name, d.name, sa.q2, sa.spread(), sa.n, sb.q2, sb.spread(), sb.n, sb.q2/sa.q2, d.bound, v, d.better)
		}
	}
	return anyWorse, nil
}
