package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skyserver/internal/htm"
	"skyserver/internal/load"
	"skyserver/internal/pipeline"
	"skyserver/internal/schema"
	"skyserver/internal/sky"
	"skyserver/internal/sqlengine"
	"skyserver/internal/val"
	"skyserver/internal/web"
)

const (
	// requestTimeout bounds one HTTP exchange; a request that takes
	// longer counts as failed.
	requestTimeout = 30 * time.Second
	// drainGrace bounds how long a phase waits, after its window closes,
	// for requests still due or in flight; what is left then fails.
	drainGrace = 20 * time.Second
	// jobPoll is the interval between job status polls.
	jobPoll = 5 * time.Millisecond
)

// record is the outcome of one HTTP request.
type record struct {
	rq *request
	// due, sent and done are offsets from the phase start; lag is how
	// late the generator sent a request whose connection was free.
	due, sent, done time.Duration
	lag             time.Duration
	status          int
	class           string
	body            []byte
	err             error
	// lo and hi bound the ingest steps the answer may reflect: steps
	// completed before the request was sent, and started before its
	// answer arrived.
	lo, hi int64
	// job timings: Created→Started, Started→Finished, result GET.
	jobQueue, jobRun, jobFetch time.Duration
	// cycle is the closed-loop cycle number of a batch query.
	cycle int
}

// client sends requests over at most conns loopback connections.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// send sends one request and reads the whole answer.
func (c *client) send(method, path string, form url.Values, user, span string) (int, http.Header, []byte, error) {
	var body io.Reader
	if form != nil {
		body = strings.NewReader(form.Encode())
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, nil, nil, err
	}
	if form != nil {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	if user != "" {
		req.Header.Set("X-User", user)
	}
	if span != "" {
		req.Header.Set(spanHeader, span)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// phase runs one plan against one server for one window.
type phase struct {
	e      *env
	c      *client
	p      *plan
	w      *world
	window time.Duration
	tr     *tracer // nil when untraced
	conns  int     // open-loop workers

	start time.Time

	mu       sync.Mutex
	records  []*record
	steps    []stepResult
	stepErrs []error
}

type stepResult struct {
	at, took time.Duration
	rows     int
}

func (ph *phase) since() time.Duration { return time.Since(ph.start) }

func (ph *phase) add(r *record) {
	ph.mu.Lock()
	ph.records = append(ph.records, r)
	ph.mu.Unlock()
}

// run drives every loop of the plan and returns once all have finished.
func (ph *phase) run() {
	ph.start = time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), ph.window+drainGrace)
	defer cancel()
	var wg sync.WaitGroup
	var next atomic.Int64
	for i := 0; i < ph.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.openWorker(ctx, &next)
		}()
	}
	if len(ph.p.cycle) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.closedLoop(ctx)
		}()
	}
	if len(ph.p.jobs) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.jobLoop(ctx)
		}()
	}
	if len(ph.p.steps) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.ingestLoop(ctx)
		}()
	}
	wg.Wait()
}

// waitUntil sleeps until the phase offset at, or until ctx ends.
func (ph *phase) waitUntil(ctx context.Context, at time.Duration) bool {
	if d := at - ph.since(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return false
		}
	}
	return ctx.Err() == nil
}

// openWorker is one open-loop connection: it takes arrivals in due
// order and sends each when due, or as soon as it is free if late.
func (ph *phase) openWorker(ctx context.Context, next *atomic.Int64) {
	for {
		i := int(next.Add(1) - 1)
		if i >= len(ph.p.open) {
			return
		}
		a := ph.p.open[i]
		free := ph.since()
		r := &record{rq: a.rq, due: a.at}
		if !ph.waitUntil(ctx, a.at) {
			r.err = fmt.Errorf("not sent within the drain grace")
			r.sent, r.done = ph.since(), ph.since()
			ph.add(r)
			continue
		}
		ph.do(r, max(free, a.at))
	}
}

// do sends r.rq (traced when the phase is) and records the outcome.
// ready is when the sender could have sent it; lag is the lateness
// beyond that.
func (ph *phase) do(r *record, ready time.Duration) {
	r.sent = ph.since()
	r.lag = max(0, r.sent-ready)
	r.lo = ph.e.completed.Load()
	var hdr string
	var root, call spanRef
	if ph.tr != nil {
		root = ph.tr.begin()
		ph.tr.replay(ph.e, root, r.rq)
		call = ph.tr.open(root)
		hdr = header(call)
	}
	r.status, r.class, r.body, r.err = ph.get(r.rq, hdr)
	if ph.tr != nil {
		ph.tr.finish(call, "client.http")
		ph.tr.finish(root, "request")
	}
	r.done = ph.since()
	r.hi = ph.e.started.Load()
	ph.add(r)
}

func (ph *phase) get(rq *request, span string) (int, string, []byte, error) {
	status, hdr, body, err := ph.c.send(http.MethodGet, rq.url, nil, rq.user, span)
	if err != nil {
		return 0, "", nil, err
	}
	return status, hdr.Get("X-Query-Class"), body, nil
}

// closedLoop runs whole cycles of the batch queries until the window
// closes, each query sent the think time after the previous answer.
func (ph *phase) closedLoop(ctx context.Context) {
	for cycle := 0; ph.since() < ph.window; cycle++ {
		for _, rq := range ph.p.cycle {
			if !ph.waitUntil(ctx, ph.since()+ph.p.think) || ph.since() >= ph.window {
				return
			}
			r := &record{rq: rq, due: ph.since(), cycle: cycle}
			ph.do(r, r.due)
		}
	}
}

// jobLoop submits each job when due, polls it until it ends, and
// fetches its result; the record's done is when the result arrived.
func (ph *phase) jobLoop(ctx context.Context) {
	for _, a := range ph.p.jobs {
		free := ph.since()
		r := &record{rq: a.rq, due: a.at}
		if !ph.waitUntil(ctx, a.at) {
			return
		}
		r.sent = ph.since()
		r.lag = max(0, r.sent-max(free, a.at))
		r.err = ph.runJob(ctx, r)
		r.done = ph.since()
		ph.add(r)
	}
}

func (ph *phase) runJob(ctx context.Context, r *record) error {
	form := url.Values{"cmd": {r.rq.sql}, "format": {r.rq.format}}
	status, _, body, err := ph.c.send(http.MethodPost, "/api/v1/jobs", form, r.rq.user, "")
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("submit: status %d: %s", status, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	for v.State != "done" {
		if v.State == "failed" {
			return fmt.Errorf("job failed: %s", v.Error)
		}
		if !ph.waitUntil(ctx, ph.since()+jobPoll) {
			return fmt.Errorf("job %s still %s after the drain grace", v.ID, v.State)
		}
		status, _, body, err = ph.c.send(http.MethodGet, "/api/v1/jobs/"+v.ID, nil, r.rq.user, "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("poll: status %d: %s", status, body)
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
	}
	r.jobQueue = v.Started.Sub(v.Created)
	r.jobRun = v.Finished.Sub(v.Started)
	t := time.Now()
	r.status, _, r.body, err = ph.c.send(http.MethodGet, "/api/v1/jobs/"+v.ID+"/result", nil, r.rq.user, "")
	r.jobFetch = time.Since(t)
	r.class = "batch"
	return err
}

// jobView is the part of the /api/v1/jobs document the loop reads.
type jobView struct {
	ID       string    `json:"id"`
	State    string    `json:"state"`
	Error    string    `json:"error"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// ingestLoop appends one batch of new PhotoObj rows per step through
// Loader.RunStep, bracketed by read-back requests: before the step a
// cached htmID-range lookup around the first new row must lack it;
// after the step the same lookup (whose earlier answer sat in the
// result cache) and a cone centred on the row must return it.
func (ph *phase) ingestLoop(ctx context.Context) {
	photo := ph.e.sky.DB().PhotoObj
	for k, st := range ph.p.steps {
		if !ph.waitUntil(ctx, st.at) {
			return
		}
		rows := newPhotoRows(photo.Cols, ph.e.completed.Load(), st.rows)
		first := rows[0][photo.ColIndex("objID")].I
		ra, dec := st.rows[0][0], st.rows[0][1]
		lookup := ph.w.htmLookup(ra, dec)
		ph.readBack(lookup, 0, first)

		t := ph.since()
		ph.e.started.Add(1)
		_, err := ph.e.sky.Loader().RunStep(load.NewSliceSource("PhotoObj", fmt.Sprintf("bench-step-%d", k), rows))
		ph.e.completed.Add(1)
		took := ph.since() - t
		ph.mu.Lock()
		ph.steps = append(ph.steps, stepResult{at: t, took: took, rows: len(rows)})
		if err != nil {
			ph.stepErrs = append(ph.stepErrs, err)
		}
		ph.mu.Unlock()

		ph.readBack(lookup, first, 0)
		ph.readBack(ph.w.coneRequest(&region{circle: true, ra: ra, dec: dec, r: 1}), first, 0)
	}
}

func (ph *phase) readBack(rq *request, have, lack int64) {
	cp := *rq
	cp.mustHave, cp.mustLack, cp.interactive = have, lack, false
	r := &record{rq: &cp, due: ph.since()}
	ph.do(r, r.due)
}

// htmLookup is an htmID-range lookup over the cover range that holds
// the point: an index seek on ix_PhotoObj_htmID without a TVF, so its
// answer is result-cacheable.
func (w *world) htmLookup(ra, dec float64) *request {
	id := htm.LookupEq(ra, dec, schema.HTMDepth)
	lo, hi := id, id+1
	for _, rg := range htm.CoverCircleEq(ra, dec, 0.5) {
		if rg.Contains(id) {
			lo, hi = rg.Lo, rg.Hi
		}
	}
	sql := fmt.Sprintf("select objID, ra, dec, type from PhotoObj where htmID between %d and %d", lo, hi-1)
	return &request{
		route: routeSQL, url: sqlURL(sql, "csv", ""), class: "interactive",
		sql: sql, format: "csv", maxRows: web.PublicMaxRows, shape: w.shape(sql),
	}
}

// newSkyVersion marks rows the benchmark appends: their objIDs use sky
// version 2, above every generated object, and carry the step number in
// the run field, so a check can tell which step added a row.
const newSkyVersion = 2

func newObjID(step int64, i int) int64 {
	return pipeline.ObjID(newSkyVersion, 0, int(step), 0, 0, i)
}

// stepOf returns the load step that appended objID, or -1 for survey
// rows.
func stepOf(objID int64) int64 {
	if objID < pipeline.ObjID(newSkyVersion, 0, 0, 0, 0, 0) {
		return -1
	}
	return (objID >> 32) & 0xFFFF
}

// newPhotoRows builds one step's PhotoObj rows: primary galaxies at the
// given positions with typed zero values elsewhere.
func newPhotoRows(cols []sqlengine.Column, step int64, pos [][2]float64) []val.Row {
	idx := map[string]int{}
	for i, c := range cols {
		idx[c.Name] = i
	}
	rng := rand.New(rand.NewSource(step))
	out := make([]val.Row, len(pos))
	for n, p := range pos {
		row := make(val.Row, len(cols))
		for i, c := range cols {
			row[i] = zeroOf(c)
		}

		v := sky.EqToVec(p[0], p[1])
		set := func(name string, x val.Value) { row[idx[name]] = x }
		set("objID", val.Int(newObjID(step, n)))
		set("skyVersion", val.Int(newSkyVersion))
		set("run", val.Int(step))
		set("obj", val.Int(int64(n)))
		set("mode", val.Int(schema.ModePrimary))
		set("type", val.Int(schema.TypeGalaxy))
		set("status", val.Int(1))
		set("ra", val.Float(p[0]))
		set("dec", val.Float(p[1]))
		set("cx", val.Float(v.X))
		set("cy", val.Float(v.Y))
		set("cz", val.Float(v.Z))
		set("htmID", val.Int(int64(htm.LookupEq(p[0], p[1], schema.HTMDepth))))
		for _, b := range schema.Bands {
			set(b, val.Float(18+4*rng.Float64()))
		}
		out[n] = row
	}
	return out
}

// zeroOf is a column's typed zero: NULL where the column allows it.
func zeroOf(c sqlengine.Column) val.Value {
	if !c.NotNull {
		return val.Null()
	}
	switch c.Kind {
	case val.KindInt:
		return val.Int(0)
	case val.KindFloat:
		return val.Float(0)
	case val.KindString:
		return val.Str("")
	}
	return val.Null()
}
