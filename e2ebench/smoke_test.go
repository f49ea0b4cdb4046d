package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFailuresStillReport checks that failed requests are counted
// rather than timed, and that a run with failures still prints its
// output line: here half the seeks, every job and a whole batch cycle
// fail.
func TestFailuresStillReport(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	seek := &request{route: routeSQL, class: "interactive", interactive: true}
	batchQ := &request{route: routeSQL, class: "batch"}
	job := &request{route: routeJob, class: "batch"}
	ph := &phase{p: &plan{cycle: []*request{batchQ, batchQ}}, window: 10 * time.Second}
	failed := map[*record]bool{}
	add := func(rq *request, due, done time.Duration, cycle int, fail bool) {
		r := &record{rq: rq, due: due, sent: due, done: done, cycle: cycle}
		ph.records = append(ph.records, r)
		if fail {
			failed[r] = true
		}
	}
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		add(seek, at, at+time.Millisecond, 0, i%2 == 0)
	}
	for c := 0; c < 4; c++ {
		at := time.Duration(c) * time.Second
		add(batchQ, at, at+20*time.Millisecond, c, c == 0)
		add(batchQ, at+100*time.Millisecond, at+120*time.Millisecond, c, false)
		add(job, at, at+time.Second, 0, true)
	}
	res := &result{Workload: "analyst_flood", Seed: 1, Metrics: map[string]metric{}, Notes: map[string]float64{}}
	res.Attempted, res.Failed, res.Wrong = len(ph.records), len(failed), 1
	endToEnd(ph, failed, res)
	res.set("setup_s", 1.5, "s")
	res.set("peak_rss_mb", 100, "MB")

	var buf bytes.Buffer
	if err := finish(res, sp, t.TempDir(), &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if sum.Correct || sum.Failed != len(failed) || sum.Attempted != len(ph.records) {
		t.Errorf("result line %+v: want correct=false, failed=%d, attempted=%d", sum, len(failed), len(ph.records))
	}
	for name, want := range map[string]float64{
		"interactive_p50_ms": 1, "interactive_p99_ms": 1, "throughput_rps": 0.7, "batch_p50_ms": 20,
	} {
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if _, ok := res.Metrics["job_p50_ms"]; ok {
		t.Errorf("job_p50_ms reported with every job failed")
	}
}

// TestSmoke runs every workload for a few seconds, untraced and traced,
// and checks that every answer is right, that every metric the output
// line must carry is printed by name with its unit, and that spec.json
// gives every workload and metric of BENCHMARK.json its reason, and
// each per-layer metric the end-to-end metric and workload it should
// move. Run it from this directory: go test -run Smoke -v .
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	checkSpec(t, sp)
	if testing.Short() {
		t.Skip("short: spec checked, runs skipped")
	}
	out := t.TempDir()
	for _, name := range sortedKeys(sp.Workloads) {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				res, err := run(runConfig{
					spec: sp, workload: name, seed: 1, seconds: 4,
					traced: traced, out: out, log: io.Discard, setups: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%d of %d requests failed: %v", res.Failed, res.Attempted, res.Failures)
				}
				if err := res.validate(sp); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				res.printReport(&buf)
				for _, m := range res.wanted(sp) {
					if !regexpMetric(buf.String(), m.Name, m.Unit) {
						t.Errorf("report lacks %s in %s", m.Name, m.Unit)
					}
				}
				for name := range res.Metrics {
					if strings.HasPrefix(name, "self_ms_per_req.") {
						name = "self_ms_per_req.*"
					}
					if _, ok := sp.Metrics[name]; !ok {
						t.Errorf("measured %s has no spec.json entry", name)
					}
				}
				for size, want := range sp.Workloads[name].Sizes {
					if got, ok := res.Notes[size]; !ok || got != want {
						t.Errorf("size %s: measured %v, spec.json says %v", size, got, want)
					}
				}
				line, err := json.Marshal(res.summary(sp))
				if err != nil {
					t.Fatal(err)
				}
				var sum summary
				if err := json.Unmarshal(line, &sum); err != nil || !sum.Correct || len(sum.Metrics) != len(res.wanted(sp)) {
					t.Errorf("bad result line %s (%v)", line, err)
				}
			})
		}
	}
}

func regexpMetric(report, name, unit string) bool {
	for _, l := range strings.Split(report, "\n") {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == "metric" && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

// checkSpec checks BENCHMARK.json against spec.json.
func checkSpec(t *testing.T, sp *spec) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, w := range bj.Workloads {
		names[w.Name] = true
		_, ok := sp.Workloads[w.Name]
		if _, known := workloads[w.Name]; !ok || !known {
			t.Errorf("workload %s has no generator or spec.json entry", w.Name)
		}
		if oneLine(w.Why) == "" {
			t.Errorf("workload %s lacks its one-line reason", w.Name)
		}
	}
	endToEnd := map[string]bool{}
	for name, m := range sp.Metrics {
		if m.Moves == "" {
			endToEnd[name] = true
		}
	}
	for _, m := range sp.EndToEnd {
		if ms, ok := sp.Metrics[m.Name]; !ok || oneLine(ms.Why) == "" || ms.Moves != "" {
			t.Errorf("end-to-end metric %s: no spec.json entry with its reason", m.Name)
		}
	}
	for _, m := range sp.PerLayer {
		ms, ok := sp.Metrics[m.Name]
		if !ok || oneLine(ms.Why) == "" {
			t.Errorf("per-layer metric %s: no spec.json entry with its reason", m.Name)
			continue
		}
		if !endToEnd[ms.Moves] {
			t.Errorf("per-layer metric %s: moves %q, not an end-to-end metric", m.Name, ms.Moves)
		}
		if len(ms.On) == 0 {
			t.Errorf("per-layer metric %s: names no workload it should move", m.Name)
		}
		for _, w := range ms.On {
			if !names[w] {
				t.Errorf("per-layer metric %s: moves on unknown workload %s", m.Name, w)
			}
		}
	}
}

// oneLine returns s when it is a non-empty single line of at most 200
// characters, else "".
func oneLine(s string) string {
	if strings.ContainsAny(s, "\n\r") || len(s) > 200 {
		return ""
	}
	return strings.TrimSpace(s)
}
