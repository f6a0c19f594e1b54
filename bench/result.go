package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// outcome is what one workload run reports to the parent process.
type outcome struct {
	Workload  string `json:"workload"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Failures holds the first few failure descriptions, for the report.
	Failures []string `json:"failures,omitempty"`
	// E2E holds every end-to-end metric; Layers every per-layer metric
	// the workload exercises (all of them in a traced run, the exact
	// counts in any run).
	E2E    map[string]float64 `json:"e2e"`
	Layers map[string]float64 `json:"layers,omitempty"`
	// Notes are report lines: sample counts, validity verdicts.
	Notes  []string `json:"notes,omitempty"`
	Pinned bool     `json:"pinned"`
}

const maxFailures = 5

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Failures) < maxFailures {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

func (o *outcome) failShare() float64 {
	if o.Attempted == 0 {
		return 1
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a one-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line builds the result line: every end-to-end metric untraced, every
// per-layer metric traced. A per-layer metric the workload does not
// exercise reads 0 — that layer did no work here.
func (o *outcome) line(sp *spec, traced bool) (resultLine, error) {
	rl := resultLine{
		Correct:   o.Failed == 0 && o.Attempted > 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   make(map[string]metricValue),
	}
	if traced {
		if err := unknownNames(o.Layers, sp.PerLayer); err != nil {
			return rl, err
		}
		for _, m := range sp.PerLayer {
			rl.Metrics[m.Name] = metricValue{o.Layers[m.Name], m.Unit}
		}
		return rl, nil
	}
	for _, m := range sp.EndToEnd {
		v, ok := o.E2E[m.Name]
		if !ok {
			return rl, fmt.Errorf("workload %s did not report %s", o.Workload, m.Name)
		}
		rl.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	return rl, nil
}

// unknownNames rejects a metric the spec does not list, so a new layer
// metric cannot be emitted without being declared in BENCHMARK.json.
func unknownNames(got map[string]float64, specs []metricSpec) error {
	known := make(map[string]bool, len(specs))
	for _, m := range specs {
		known[m.Name] = true
	}
	for name := range got {
		if !known[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// report prints one workload's metrics by name with their units.
func (o *outcome) report(w io.Writer, sp *spec, traced bool) {
	fmt.Fprintf(w, "\n== %s ==\n", o.Workload)
	for _, m := range sp.EndToEnd {
		if v, ok := o.E2E[m.Name]; ok {
			fmt.Fprintf(w, "  %-24s %14.6g %-6s (%s is better, bound %.0f%%)\n",
				m.Name, v, m.Unit, m.Better, m.Bound*100)
		}
	}
	fmt.Fprintf(w, "  %-24s %14.6g ratio  (%d failed of %d attempted, bound +%g absolute)\n",
		"fail_share", o.failShare(), o.Failed, o.Attempted, failShareBound)
	for _, f := range o.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if traced {
		fmt.Fprintln(w, "  per-layer (traced run; 0 = layer not exercised by this workload):")
		for _, m := range sp.PerLayer {
			if v := o.Layers[m.Name]; v != 0 {
				fmt.Fprintf(w, "    %-34s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
}

// resultSet is what an all-workloads run writes for -agree to compare.
type resultSet struct {
	Header    map[string]string   `json:"header"`
	Workloads map[string]*outcome `json:"workloads"`
}

func (rs *resultSet) encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

func headerLine(h map[string]string) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + h[k]
	}
	return strings.Join(parts, " ")
}
