package main

import (
	"fmt"
	"io"
	"sort"
)

// summary is the last output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// wanted is the metric list of the last output line: the end-to-end
// metrics of BENCHMARK.json, or its per-layer metrics in a traced run.
func (r *result) wanted(sp *spec) []benchMetric {
	if r.Traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// validate checks that the run measured every metric the last line
// must carry, in its declared unit.
func (r *result) validate(sp *spec) error {
	for _, m := range r.wanted(sp) {
		got, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}

func (r *result) summary(sp *spec) summary {
	s := summary{Correct: r.Wrong == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, m := range r.wanted(sp) {
		s.Metrics[m.Name] = r.Metrics[m.Name]
	}
	return s
}

// printReport prints the facts, every measured metric with its unit,
// and the notes (sample counts, set-up repeats).
func (r *result) printReport(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %d traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	f := r.Facts
	fmt.Fprintf(w, "facts gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s\n",
		f.GOMAXPROCS, f.NumCPU, f.CPUModel, f.GoVersion, f.Commit)
	fmt.Fprintf(w, "checks attempted=%d failed=%d wrong_answers=%d\n", r.Attempted, r.Failed, r.Wrong)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "metric %-40s %14.6f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(r.Notes) {
		fmt.Fprintf(w, "note   %-40s %14.6f\n", name, r.Notes[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
