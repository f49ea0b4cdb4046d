package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"skyserver/internal/storage"
)

// maxLagMs is the generator lateness (p99) beyond which a run is invalid:
// the load it offered was not the load it claims.
const maxLagMs = 100

type runConfig struct {
	spec     *spec
	workload string
	seed     int64
	seconds  int
	traced   bool
	out      string
	log      io.Writer
	// setups is how many times the server is set up (setupRepeats
	// when 0).
	setups int
}

// setupRepeats is how many set-ups a run times; setup_s is their median.
const setupRepeats = 3

// generator builds a workload's plan for d from rng.
type generator func(w *world, ws workloadSpec, rng *rand.Rand, d time.Duration) (*plan, error)

// workloads are the traffic mixes the command can run. explorer is not
// among the workloads BENCHMARK.json gates: its median falls between the
// cheap pages and the gallery scan, so on a shared host it moved up to
// twice as much as the host slowed, past the largest bound allowed.
var workloads = map[string]generator{
	"explorer":      explorerPlan,
	"analyst_flood": analystPlan,
	"cone_ingest":   conePlan,
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured; it is written to a result
// file and summarized on the last output line.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Facts     facts              `json:"facts"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     int                `json:"wrong_answers"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Notes     map[string]float64 `json:"notes"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(name string, v float64) { r.Notes[name] = v }

// run sets the server up, drives the workload and checks every answer.
func run(cfg runConfig) (*result, error) {
	sp := cfg.spec
	ws := sp.Workloads[cfg.workload]
	gen := workloads[cfg.workload]
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Facts: machineFacts(), Metrics: map[string]metric{}, Notes: map[string]float64{},
	}
	dir, err := benchDir(cfg.out)
	if err != nil {
		return nil, err
	}

	// Set up several times and report the median: core.Open, serving,
	// and a warm-up that fills the plan, page and result caches.
	var e *env
	var w *world
	var setups []float64
	repeats := cfg.setups
	if repeats == 0 {
		repeats = setupRepeats
	}
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		e, w, err = setupAndWarm(sp, ws, gen, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	res.set("setup_s", median(setups), "s")
	for i, s := range setups {
		res.note(fmt.Sprintf("setup_%d_s", i+1), s)
	}
	noteSizes(e, ws, res)

	window := time.Duration(cfg.seconds) * time.Second
	p, err := gen(w, ws, rand.New(rand.NewSource(cfg.seed)), window)
	if err != nil {
		return nil, err
	}
	res.note("distinct_sql_keys", float64(p.distinctKeys))
	c := newClient(e.base, ws.Connections)
	defer c.close()
	conns := openConns(ws, p)
	res.note("open_loop_connections", float64(conns))
	res.note("closed_loop_connections", float64(ws.Connections-conns))
	newPhase := func(p *plan, d time.Duration) *phase {
		return &phase{e: e, c: c, p: p, w: w, window: d, conns: conns}
	}

	// peak_rss_mb covers the load only: record the set-up's peak, return
	// the set-up's garbage to the OS and restart the high-water mark.
	setupPeak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.note("setup_peak_rss_mb", setupPeak)
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var phases []*phase
	if cfg.traced {
		if phases, err = runTraced(cfg, e, p, window, newPhase, res); err != nil {
			return nil, err
		}
	} else {
		ph := newPhase(p, window)
		ph.run()
		phases = []*phase{ph}
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", peak, "MB")
	// The answers kept for checking count in that peak; note their size.
	var kept int
	for _, ph := range phases {
		for _, r := range ph.records {
			kept += len(r.body)
		}
	}
	res.note("kept_body_mb", float64(kept)/(1<<20))

	// Check every answer now that the clock has stopped.
	failed := checkAll(newChecker(e, w), phases, res)
	endToEnd(phases[0], failed, res)
	if cfg.traced {
		tracedP50 := interactiveP50(phases[1], failed)
		res.set("loadgen.trace_overhead_frac", ratio(tracedP50, res.Metrics["interactive_p50_ms"].Value)-1, "ratio")
		var steps []stepResult
		for _, ph := range phases {
			steps = append(steps, ph.steps...)
		}
		layerSteps(steps, res)
		layerJobs(phases, failed, res)
	}
	if lag := res.Metrics["loadgen.lag_p99_ms"].Value; lag > maxLagMs {
		return nil, fmt.Errorf("generator fell behind (lag p99 %.1f ms > %d ms): run invalid", lag, maxLagMs)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(cfg.log, "e2ebench: failed: %s\n", f)
	}
	return res, nil
}

// runTraced runs p in two halves of window at the same offered load:
// the first untraced, for the layer counters and the end-to-end
// numbers the tracing overhead is measured against; the second with
// every request traced. It returns both phases, untraced first.
func runTraced(cfg runConfig, e *env, p *plan, window time.Duration,
	newPhase func(*plan, time.Duration) *phase, res *result) ([]*phase, error) {
	half := window / 2
	pa, pb := p.split(half)
	a, b := newPhase(pa, half), newPhase(pb, window-half)

	heap := startHeapSampler()
	before := snapshot(e)
	a.run()
	layerCounters(before, snapshot(e), len(a.records), res)
	var bytes int
	for _, r := range a.records {
		bytes += len(r.body)
	}
	res.set("web.resp_bytes", ratio(float64(bytes), float64(len(a.records))), "bytes")

	b.tr = newTracer()
	e.tracer.Store(b.tr)
	e.vol.on.Store(true)
	b.run()
	e.vol.on.Store(false)
	e.tracer.Store(nil)
	res.set("runtime.heap_peak_mb", heap.end(), "MB")

	layerSpans(b.tr, e.vol.takeReads(), res)
	for name, self := range b.tr.selfTimes() {
		res.set("self_ms_per_req."+name, ratio(float64(self)/1e6, float64(len(b.records))), "ms")
	}
	err := b.tr.dump(filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
	return []*phase{a, b}, err
}

// checkAll checks every answer of every phase, counting attempts and
// failures into res, and returns the failed records.
func checkAll(ck *checker, phases []*phase, res *result) map[*record]bool {
	failed := map[*record]bool{}
	fail := func(wrong bool, msg string) {
		res.Failed++
		if wrong {
			res.Wrong++
		}
		if len(res.Failures) < 20 {
			res.Failures = append(res.Failures, msg)
		}
	}
	for _, ph := range phases {
		for _, r := range ph.records {
			res.Attempted++
			if wrong, err := ck.check(ph, r); err != nil {
				failed[r] = true
				fail(wrong, fmt.Sprintf("%s %.200s: %v", r.rq.route, r.rq.url, err))
			}
		}
		for _, err := range ph.stepErrs {
			res.Attempted++
			fail(true, fmt.Sprintf("load step: %v", err))
		}
	}
	return failed
}

// openConns is the number of open-loop connections: all of them, less
// the one the closed loop of p holds.
func openConns(ws workloadSpec, p *plan) int {
	if len(p.cycle) > 0 {
		return ws.Connections - 1
	}
	return ws.Connections
}

// setupAndWarm builds and serves the server, reads the generators'
// inputs from it, and warms it with a fixed, seed-independent prefix of
// the workload's own traffic sent back to back.
func setupAndWarm(sp *spec, ws workloadSpec, gen generator, dir string) (*env, *world, error) {
	e, err := setup(sp, ws, dir)
	if err != nil {
		return nil, nil, err
	}
	w, err := loadWorld(e, sp)
	if err != nil {
		e.close()
		return nil, nil, err
	}
	p, err := gen(w, ws, rand.New(rand.NewSource(-1)), 10*time.Second)
	if err != nil {
		e.close()
		return nil, nil, err
	}
	c := newClient(e.base, 1)
	defer c.close()
	n := min(len(p.open), int(ws.param("warm_requests")))
	warm := append([]*request(nil), p.cycle...)
	for _, a := range p.open[:n] {
		warm = append(warm, a.rq)
	}
	for _, rq := range warm {
		if _, _, _, err := c.send(http.MethodGet, rq.url, nil, rq.user, ""); err != nil {
			e.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, w, nil
}

// split cuts a plan at d: what is due before d, and the rest due from
// d on with offsets rebased to zero.
func (p *plan) split(d time.Duration) (*plan, *plan) {
	a := &plan{cycle: p.cycle, think: p.think, distinctKeys: p.distinctKeys}
	b := &plan{cycle: p.cycle, think: p.think, distinctKeys: p.distinctKeys}
	for _, x := range p.open {
		if x.at < d {
			a.open = append(a.open, x)
		} else {
			b.open = append(b.open, arrival{x.at - d, x.rq})
		}
	}
	for _, x := range p.jobs {
		if x.at < d {
			a.jobs = append(a.jobs, x)
		} else {
			b.jobs = append(b.jobs, arrival{x.at - d, x.rq})
		}
	}
	for _, s := range p.steps {
		if s.at < d {
			a.steps = append(a.steps, s)
		} else {
			s.at -= d
			b.steps = append(b.steps, s)
		}
	}
	return a, b
}

// latency is a request's time from when it was due until its answer
// arrived, in ms. Failed requests have none: they count in failed and
// error_frac instead.
func latency(r *record) float64 {
	return float64(r.done-r.due) / float64(time.Millisecond)
}

func interactiveP50(ph *phase, failed map[*record]bool) float64 {
	var lat []float64
	for _, r := range ph.records {
		if r.rq.interactive && !failed[r] {
			lat = append(lat, latency(r))
		}
	}
	return median(lat)
}

// endToEnd computes the user-visible metrics of an untraced phase.
func endToEnd(ph *phase, failed map[*record]bool, res *result) {
	secs := ph.window.Seconds()
	var inter, lags, jobLat []float64
	perRoute := map[string][]float64{}
	completed, batchDone := 0, 0
	cycleEnd := map[int]time.Duration{}
	cycleN := map[int]int{}
	var batch []*record
	for _, r := range ph.records {
		if r.rq.interactive || r.rq.route == routeJob {
			lags = append(lags, float64(r.lag)/float64(time.Millisecond))
		}
		isBatch := r.rq.class == "batch" && r.rq.route != routeJob
		if isBatch {
			cycleN[r.cycle]++
			cycleEnd[r.cycle] = max(cycleEnd[r.cycle], r.done)
		}
		if failed[r] {
			continue
		}
		inWindow := r.done <= ph.window
		if inWindow {
			completed++
		}
		switch {
		case r.rq.interactive:
			inter = append(inter, latency(r))
			route := r.rq.route.String()
			perRoute[route] = append(perRoute[route], latency(r))
		case r.rq.route == routeJob:
			jobLat = append(jobLat, latency(r))
		case isBatch:
			if inWindow {
				batchDone++
			}
			batch = append(batch, r)
		}
	}
	var batchLat []float64
	for _, r := range batch {
		if cycleN[r.cycle] == len(ph.p.cycle) && cycleEnd[r.cycle] <= ph.window {
			batchLat = append(batchLat, latency(r))
		}
	}
	for route, lat := range perRoute {
		res.note("p50_ms."+route, median(lat))
		res.note("n."+route, float64(len(lat)))
	}
	res.set("interactive_p50_ms", median(inter), "ms")
	p99, q := tail(inter)
	res.set("interactive_p99_ms", p99, "ms")
	res.note("interactive_n", float64(len(inter)))
	res.note("interactive_p99_quantile", q)
	res.set("loadgen.lag_p99_ms", pct(lags, 0.99), "ms")
	res.set("error_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	if len(ph.p.cycle) > 0 {
		// The open loop's completions are pinned to its offered rate; the
		// closed loop's are what the server's speed moves.
		res.set("throughput_rps", float64(batchDone)/secs, "1/s")
		res.set("batch_p50_ms", median(batchLat), "ms")
		res.note("batch_n", float64(len(batchLat)))
		res.note("open_loop_rps", float64(completed-batchDone)/secs)
	} else {
		res.set("throughput_rps", float64(completed)/secs, "1/s")
	}
	if len(jobLat) > 0 {
		res.set("job_p50_ms", median(jobLat), "ms")
		res.note("job_n", float64(len(jobLat)))
	}
	if len(ph.p.steps) > 0 {
		rows := 0
		for _, s := range ph.steps {
			rows += s.rows
		}
		res.set("ingest_rows_s", float64(rows)/secs, "rows/s")
	}
}

// layerSpans turns a traced phase's spans into per-layer timings.
func layerSpans(tr *tracer, reads []time.Duration, res *result) {
	res.set("web.handler_p50_ms", median(ms(tr.byName("web.handler"))), "ms")
	res.set("web.transport_p50_ms", median(ms(tr.transport())), "ms")
	res.set("web.serialize_p50_us", median(us(tr.byName("web.serialize"))), "us")
	res.set("resultcache.probe_p50_us", median(us(tr.byName("resultcache.probe"))), "us")
	res.set("sqlengine.frontend_p50_us", median(us(tr.byName("sqlengine.frontend"))), "us")
	exec := ms(tr.byPrefix("sqlengine.exec."))
	res.set("sqlengine.exec_p50_ms", median(exec), "ms")
	var sum float64
	for _, x := range exec {
		sum += x
	}
	res.set("sqlengine.exec_mean_ms", ratio(sum, float64(len(exec))), "ms")
	for _, class := range []string{"interactive", "batch"} {
		if d := tr.byName("sqlengine.exec." + class); len(d) > 0 {
			res.set("sqlengine.exec_p50_ms."+class, median(ms(d)), "ms")
		}
	}
	res.set("sqlengine.rows_scanned_per_row", ratio(float64(tr.scanned), float64(tr.returned)), "ratio")
	admitI, _ := tail(ms(tr.byName("sched.admit.interactive")))
	res.set("sched.admit_wait_p99_ms.interactive", admitI, "ms")
	res.set("sched.admit_wait_p50_ms", median(ms(tr.byPrefix("sched.admit."))), "ms")
	if d := tr.byName("sched.admit.batch"); len(d) > 0 {
		res.set("sched.admit_wait_p50_ms.batch", median(ms(d)), "ms")
	}
	res.set("shard.route_p50_us", median(us(tr.byName("shard.route"))), "us")
	res.set("htm.cover_p50_us", median(us(tr.byName("htm.cover"))), "us")
	if len(reads) > 0 {
		res.set("storage.vol_read_p50_us", median(us(reads)), "us")
	}
	res.note("spans", float64(len(tr.spans)))
}

// layerSteps reports the loader's per-step cost.
func layerSteps(steps []stepResult, res *result) {
	var rows int
	var busy time.Duration
	var took []time.Duration
	for _, s := range steps {
		rows += s.rows
		busy += s.took
		took = append(took, s.took)
	}
	res.set("load.rows_per_s_busy", ratio(float64(rows), busy.Seconds()), "rows/s")
	if len(steps) > 0 {
		res.set("load.step_p50_ms", median(ms(took)), "ms")
		res.set("load.rows_per_step", float64(rows)/float64(len(steps)), "count")
	}
}

// layerJobs reports the job service's queue, run and fetch times.
func layerJobs(phases []*phase, failed map[*record]bool, res *result) {
	var queue, runT, fetch []time.Duration
	for _, ph := range phases {
		for _, r := range ph.records {
			if r.rq.route == routeJob && !failed[r] {
				queue = append(queue, r.jobQueue)
				runT = append(runT, r.jobRun)
				fetch = append(fetch, r.jobFetch)
			}
		}
	}
	if len(queue) == 0 {
		return
	}
	res.set("jobs.queue_p50_ms", median(ms(queue)), "ms")
	res.set("jobs.run_p50_ms", median(ms(runT)), "ms")
	res.set("jobs.fetch_p50_ms", median(ms(fetch)), "ms")
}

// noteSizes records what decides how the caches behave: the heap data
// of PhotoObj and of all tables in 8 KiB pages, the page-cache budget,
// and the result-cache budget.
func noteSizes(e *env, ws workloadSpec, res *result) {
	var all float64
	for _, t := range e.sky.TableSummary() {
		pages := math.Ceil(float64(t.DataBytes) / storage.PageSize)
		all += pages
		if t.Name == "PhotoObj" {
			res.note("photoobj_heap_pages", pages)
		}
	}
	res.note("all_heap_pages", all)
	res.note("page_cache_pages", float64(ws.CachePages))
	if rc := e.web.ResultCache(); rc != nil {
		res.note("result_cache_bytes", float64(rc.Stats().MaxBytes))
	}
}
