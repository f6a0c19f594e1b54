package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runAgree compares two result sets metric by metric against the bounds
// of BENCHMARK.json. The question is whether two sets of runs of one
// commit repeat, so the comparison is symmetric: the two values may
// differ by at most the bound, as a share of the smaller, whichever file
// is named first. It prints one row per (workload, metric) and returns 1
// on any miss, 2 on bad input.
func runAgree(w io.Writer, sp *spec, paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -agree needs two result files")
		return 2
	}
	var sets [2]resultSet
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(raw, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	fmt.Fprintf(w, "A: %s  (%s)\nB: %s  (%s)\n", paths[0], headerLine(sets[0].Header), paths[1], headerLine(sets[1].Header))
	if agree(w, sp, &sets[0], &sets[1]) {
		fmt.Fprintln(w, "AGREE: every metric differs by no more than its bound, in either order")
		return 0
	}
	fmt.Fprintln(w, "DISAGREE: at least one metric is outside its bound")
	return 1
}

// agree prints the comparison and reports whether every row passed. A
// metric or workload present on one side only is a miss: a metric that
// stops being reported must not pass for unchanged.
func agree(w io.Writer, sp *spec, a, b *resultSet) bool {
	names := map[string]bool{}
	for n := range a.Workloads {
		names[n] = true
	}
	for n := range b.Workloads {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	fmt.Fprintf(w, "%-12s %-12s %14s %14s %9s %9s  %s\n", "workload", "metric", "A", "B", "differ by", "bound", "verdict")
	ok := true
	row := func(wl, metric string, av, bv, differ, bound float64, unit string) {
		verdict := "pass"
		if differ > bound {
			verdict, ok = "MISS", false
		}
		fmt.Fprintf(w, "%-12s %-12s %14.6g %14.6g %8.3g%s %8.3g%s  %s\n", wl, metric, av, bv, differ, unit, bound, unit, verdict)
	}
	for _, wl := range ordered {
		oa, ob := a.Workloads[wl], b.Workloads[wl]
		if oa == nil || ob == nil {
			fmt.Fprintf(w, "%-12s %-12s missing from one result set  MISS\n", wl, "*")
			ok = false
			continue
		}
		for _, m := range sp.EndToEnd {
			av, inA := oa.E2E[m.Name]
			bv, inB := ob.E2E[m.Name]
			if !inA || !inB || av <= 0 || bv <= 0 {
				fmt.Fprintf(w, "%-12s %-12s missing from one result set  MISS\n", wl, m.Name)
				ok = false
				continue
			}
			// As a share of the smaller value: the stricter of the two
			// shares, and the same whichever file is A.
			row(wl, m.Name, av, bv, math.Abs(bv-av)/math.Min(av, bv)*100, m.Bound*100, "%")
		}
		// fail_share has an absolute bound: its baseline is 0.
		fa, fb := oa.failShare(), ob.failShare()
		row(wl, "fail_share", fa, fb, math.Abs(fb-fa), failShareBound, " ")
	}
	return ok
}
