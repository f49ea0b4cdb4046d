package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specJSON holds what BENCHMARK.json cannot: the workload parameters the
// run uses, the sizes that matter for caching, and for every metric its
// reason and — for a per-layer metric — the end-to-end metric and
// workload it should move. Workload reasons and metric units live in
// BENCHMARK.json only; the smoke test ties the two files together.
//
//go:embed spec.json
var specJSON []byte

// spec is the parsed spec.json plus the metric list of BENCHMARK.json.
type spec struct {
	Server struct {
		Scale      float64 `json:"scale"`
		SurveySeed int64   `json:"survey_seed"`
		Shards     int     `json:"shards"`
	} `json:"server"`
	Workloads map[string]workloadSpec `json:"workloads"`
	Metrics   map[string]metricSpec   `json:"metrics"`

	// From BENCHMARK.json: the metrics the last output line carries.
	EndToEnd []benchMetric `json:"-"`
	PerLayer []benchMetric `json:"-"`
}

type workloadSpec struct {
	// RateRPS is the open-loop arrival rate and Connections the client
	// connection cap; a workload with a closed loop gives it one of them.
	RateRPS     float64 `json:"rate_rps"`
	Connections int     `json:"connections"`
	// CachePages is the page-cache budget (split across shards).
	CachePages int `json:"page_cache_pages"`
	// Sizes records what the fixed-seed server holds; the smoke test
	// checks them against a fresh build.
	Sizes map[string]float64 `json:"sizes"`
	// Params holds the workload's own knobs (see workload.go).
	Params map[string]float64 `json:"params"`
}

type metricSpec struct {
	Why   string   `json:"why"`
	Moves string   `json:"moves"`
	On    []string `json:"on"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// loadSpec parses the embedded spec and the metric lists of
// BENCHMARK.json in the repository root.
func loadSpec(root string) (*spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bj struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	s.EndToEnd, s.PerLayer = bj.EndToEnd, bj.PerLayer
	return &s, nil
}

func (w workloadSpec) param(name string) float64 {
	v, ok := w.Params[name]
	if !ok {
		panic("spec.json: missing workload param " + name)
	}
	return v
}
