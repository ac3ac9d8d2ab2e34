package main

// -compare A.json B.json: apply each end-to-end metric's bound, workload by
// workload, to two result files of this benchmark. A is the parent (or the
// first set of runs), B the change (or the second set).

import (
	"fmt"
	"io"
	"sort"
)

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// spread is the run-to-run spread of one side as a share of its median: the
// distance between the first and third quartile with four or more runs, the
// full range with two or three, and zero (unknown) with one.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := median(s)
	if len(s) < 2 || m == 0 {
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quartiles(s)
	}
	return (hi - lo) / m
}

// quartiles returns the first and third quartile of sorted xs by the
// exclusive method, as Python's statistics.quantiles(xs, n=4) does.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(sorted)+1)
		i := int(pos)
		switch {
		case i < 1:
			return sorted[0]
		case i >= len(sorted):
			return sorted[len(sorted)-1]
		}
		return sorted[i-1] + (pos-float64(i))*(sorted[i]-sorted[i-1])
	}
	return at(0.25), at(0.75)
}

// judge compares the runs of one metric on one workload. worsening is the
// share of A's median by which B's median is worse (negative = better).
func judge(def metricDef, a, b []float64) (v verdict, worsening float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worsening = (mb - ma) / ma
		if def.Better == higher {
			worsening = -worsening
		}
	}
	switch {
	case spread(a) > def.Bound || spread(b) > def.Bound:
		return verdictUnresolved, worsening
	case worsening > def.Bound:
		return verdictWorse, worsening
	}
	return verdictOK, worsening
}

// values collects one metric of one workload across a file's passes.
func (rf *resultFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, p := range rf.Passes {
		if r := p.Workloads[workload]; r != nil {
			if m, ok := r.Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// runCompare prints one row per workload and end-to-end metric and returns
// the exit code: 1 if any row is worse, 2 if a file cannot be used.
func runCompare(out io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err == nil && a.Traced {
		err = fmt.Errorf("%s is a traced run; end-to-end metrics come from untraced runs", pathA)
	}
	var b *resultFile
	if err == nil {
		b, err = readResultFile(pathB)
	}
	if err == nil && b.Traced {
		err = fmt.Errorf("%s is a traced run; end-to-end metrics come from untraced runs", pathB)
	}
	if err == nil && a.Seconds != b.Seconds {
		err = fmt.Errorf("run length differs: %g s against %g s", a.Seconds, b.Seconds)
	}
	if err != nil {
		fmt.Fprintln(out, "compare:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(out, "%-18s %-14s %12s %12s %9s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "worse by", "bound", "spread", "verdict")
	for _, w := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values(w.Name, def.Name), b.values(w.Name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-18s %-14s missing from a file\n", w.Name, def.Name)
				code = 2
				continue
			}
			v, worsening := judge(def, va, vb)
			spreadCol := "    n/a" // one run a side: nothing to take a spread of
			if len(va) > 1 || len(vb) > 1 {
				spreadCol = fmt.Sprintf("%6.1f%%", 100*max(spread(va), spread(vb)))
			}
			fmt.Fprintf(out, "%-18s %-14s %12.4f %12.4f %+8.1f%% %6.0f%% %s  %s\n",
				w.Name, def.Name, median(va), median(vb), 100*worsening, 100*def.Bound, spreadCol, v)
			if v == verdictWorse && code == 0 {
				code = 1
			}
		}
	}
	return code
}
