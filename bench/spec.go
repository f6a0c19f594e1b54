package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is BENCHMARK.json as seen from the bench directory, which is
// the working directory of every mode (see enterBenchDir).
const specPath = "../BENCHMARK.json"

// metricSpec is one metric of BENCHMARK.json. Bound is the share of the
// baseline's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// spec is the part of BENCHMARK.json the harness reads: it is the single
// source of metric names, units, directions and bounds, so the report,
// the result line and -agree cannot drift from what the driver checks.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, workloads and end_to_end are required", path)
	}
	return &s, nil
}

// failShareBound is the absolute amount by which failed/attempted may
// rise between two result sets before -agree reports a miss. It is
// absolute, not a share, because the baseline is 0.
const failShareBound = 0.001
