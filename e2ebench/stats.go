package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"skyserver/internal/resultcache"
	"skyserver/internal/sched"
	"skyserver/internal/shard"
	"skyserver/internal/sqlengine"
)

// pct returns the nearest-rank q-quantile of xs (0 when empty).
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tail returns the value at the highest percentile, at most the 99th,
// that has at least ten samples beyond it, with that percentile.
func tail(xs []float64) (v, q float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := min(int(math.Ceil(0.99*float64(n)))-1, n-11)
	i = max(i, 0)
	return s[i], float64(i+1) / float64(n)
}

func median(xs []float64) float64 { return pct(xs, 0.5) }

func ms(ds []time.Duration) []float64 { return scaled(ds, float64(time.Millisecond)) }
func us(ds []time.Duration) []float64 { return scaled(ds, float64(time.Microsecond)) }

func scaled(ds []time.Duration, unit float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / unit
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is a snapshot of every layer's exported statistics.
type counters struct {
	rc      resultcache.Stats
	plans   sqlengine.PlanCacheStats
	sched   sched.Stats
	pool    sched.PoolStats
	shards  shard.Stats
	retries uint64
	csums   uint64
	phys    uint64
	mallocs uint64
	gcs     uint32
}

func snapshot(e *env) counters {
	db := e.sky.DB().DB
	c := counters{plans: db.Plans().Stats(), sched: e.web.Sched().Stats(), shards: db.Shards().Stats()}
	if rc := e.web.ResultCache(); rc != nil {
		c.rc = rc.Stats()
	}
	for _, fg := range db.Shards().FileGroups() {
		p := fg.ScanPoolStats()
		c.pool.ShardsInline += p.ShardsInline
		c.pool.ShardsPool += p.ShardsPool
		c.retries += fg.ReadRetries()
		c.csums += fg.ChecksumFails()
		c.phys += fg.PhysReads()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.gcs = m.Mallocs, m.NumGC
	return c
}

// layerCounters turns the counter deltas of one phase into per-layer
// metrics; requests is the number of HTTP requests the phase sent.
func layerCounters(a, b counters, requests int, res *result) {
	rcHits, rcMiss := b.rc.Hits-a.rc.Hits, b.rc.Misses-a.rc.Misses
	res.set("resultcache.hit_ratio", ratio(float64(rcHits), float64(rcHits+rcMiss)), "ratio")
	res.set("resultcache.invalidations", float64(b.rc.Invalidations-a.rc.Invalidations), "count")
	res.set("resultcache.evictions", float64(b.rc.Evictions-a.rc.Evictions), "count")
	pcHits, pcMiss := b.plans.Hits-a.plans.Hits, b.plans.Misses-a.plans.Misses
	res.set("sqlengine.plancache_hit_ratio", ratio(float64(pcHits), float64(pcHits+pcMiss)), "ratio")
	res.set("sqlengine.plancache_invalidations", float64(b.plans.Invalidations-a.plans.Invalidations), "count")
	res.set("sched.rejected", float64(b.sched.Rejected-a.sched.Rejected), "count")
	inline := float64(b.pool.ShardsInline - a.pool.ShardsInline)
	pooled := float64(b.pool.ShardsPool - a.pool.ShardsPool)
	res.set("sched.pool_inline_frac", ratio(inline, inline+pooled), "ratio")
	pages := float64(b.sched.PagesScanned - a.sched.PagesScanned)
	queries := float64((b.sched.Completed + b.sched.Failed) - (a.sched.Completed + a.sched.Failed))
	res.set("storage.pages_per_query", ratio(pages, queries), "pages")
	phys := float64(b.phys - a.phys)
	hit := 1.0
	if pages > 0 {
		hit = max(0, 1-phys/pages)
	}
	res.set("storage.cache_hit_ratio", hit, "ratio")
	res.set("storage.read_retries", float64(b.retries-a.retries), "count")
	res.set("storage.checksum_fails", float64(b.csums-a.csums), "count")

	n := len(b.shards.PerShard)
	routes := float64((b.shards.SpatialRouted + b.shards.FullRouted) - (a.shards.SpatialRouted + a.shards.FullRouted))
	var routed, maxPages, sumPages float64
	for i := range b.shards.PerShard {
		routed += float64(b.shards.PerShard[i].QueriesRouted - a.shards.PerShard[i].QueriesRouted)
		p := float64(b.shards.PerShard[i].PagesScanned - a.shards.PerShard[i].PagesScanned)
		maxPages = max(maxPages, p)
		sumPages += p
	}
	prune := 0.0
	if routes > 0 {
		prune = 1 - routed/(routes*float64(n))
	}
	res.set("shard.prune_ratio", prune, "ratio")
	res.set("shard.pages_skew", ratio(maxPages, sumPages/float64(n)), "ratio")

	res.set("runtime.allocs_per_req", ratio(float64(b.mallocs-a.mallocs), float64(requests)), "count")
	res.set("runtime.gc_cycles", float64(b.gcs-a.gcs), "count")
}

// heapSampler records the peak live heap while it runs, reading
// runtime/metrics (which does not stop the world).
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampler only; read after done closes
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak heap in MB.
func (h *heapSampler) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of
// this process (VmHWM) from its current resident set.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	defer f.Close()
	if _, err := f.WriteString("5"); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// it started or since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// facts describe the machine and build a result came from; results
// whose facts differ are not compared.
type facts struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machineFacts() facts {
	return facts{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads the checked-out commit from .git without running git;
// "unknown" outside a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// compareFiles prints the metric ratios of two result files, refusing
// when they come from different machines or different workloads.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var a, b result
	for _, x := range []struct {
		path string
		r    *result
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.r); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	fa, fb := a.Facts, b.Facts
	fa.Commit, fb.Commit = "", ""
	if fa != fb {
		return fmt.Errorf("machine facts differ: %+v vs %+v", a.Facts, b.Facts)
	}
	if a.Workload != b.Workload || a.Traced != b.Traced || a.Seconds != b.Seconds {
		return fmt.Errorf("different runs: %s/traced=%v/%ds vs %s/traced=%v/%ds",
			a.Workload, a.Traced, a.Seconds, b.Workload, b.Traced, b.Seconds)
	}
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics {
		if _, ok := b.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %14s %14s %8s\n", "metric", "A", "B", "B/A")
	for _, name := range names {
		ma, mb := a.Metrics[name], b.Metrics[name]
		fmt.Fprintf(w, "%-40s %14.6g %14.6g %8.3f  %s\n", name, ma.Value, mb.Value, ratio(mb.Value, ma.Value), ma.Unit)
	}
	return nil
}
