package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skyserver/internal/htm"
	"skyserver/internal/sched"
	"skyserver/internal/sqlengine"
	"skyserver/internal/web"
)

// spanHeader carries "<request id>.<parent span id>" from the client to
// the benchmark's handler wrapper in traced phases.
const spanHeader = "X-Bench-Span"

// span is one timed call into a layer. Spans of one request share req;
// parent 0 marks the request's root.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is an open span.
type spanRef struct {
	req    uint64
	id     uint32
	parent uint32
	start  int64
}

// tracer keeps every span of a traced phase in memory.
type tracer struct {
	origin time.Time
	reqs   atomic.Uint64
	ids    atomic.Uint32
	mu     sync.Mutex
	spans  []span
	// rows scanned and returned by replayed executions.
	scanned, returned int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is nanoseconds since the tracer started (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

func (t *tracer) add(req uint64, parent uint32, name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, ID: t.ids.Add(1), Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// begin opens a new request's root span.
func (t *tracer) begin() spanRef {
	return spanRef{req: t.reqs.Add(1), id: t.ids.Add(1), start: t.now()}
}

// open opens a span under parent.
func (t *tracer) open(parent spanRef) spanRef {
	return spanRef{req: parent.req, id: t.ids.Add(1), parent: parent.id, start: t.now()}
}

// finish closes an open span.
func (t *tracer) finish(r spanRef, name string) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: r.req, ID: r.id, Parent: r.parent, Name: name, Start: r.start, End: end})
	t.mu.Unlock()
}

// header is the span header value that parents the server's handler
// span to r.
func header(r spanRef) string {
	return strconv.FormatUint(r.req, 10) + "." + strconv.FormatUint(uint64(r.id), 10)
}

func parseSpanHeader(h string) (uint64, uint32, bool) {
	a, b, ok := strings.Cut(h, ".")
	if !ok {
		return 0, 0, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 32)
	return req, uint32(parent), err1 == nil && err2 == nil
}

// timed runs f as a span named name under parent.
func (t *tracer) timed(parent spanRef, name string, f func()) {
	s := t.now()
	f()
	t.add(parent.req, parent.id, name, s, t.now())
}

// replay runs a query request through the public calls the server makes
// for it, in the server's order, against the server's own cache and
// scheduler: Session.ResultKey and ClassifyCached (the SQL front end),
// ResultCache().Probe, Sched().AdmitUser, Session.ExecContext,
// web.WriteResult and Ticket.Done. A probe hit stops the replay, as it
// stops the server. Spatial requests also time their HTM cover and
// shard route. Each call is one span under root.
func (t *tracer) replay(e *env, root spanRef, rq *request) {
	if rq.region != nil {
		var cover []htm.Range
		t.timed(root, "htm.cover", func() { cover = rq.region.cover() })
		plan := e.sky.DB().DB.Shards().Plan()
		t.timed(root, "shard.route", func() { _ = plan.Route(cover) })
	}
	if rq.sql == "" || rq.route == routeJob {
		return
	}
	db := e.sky.DB().DB
	sess := sqlengine.NewSession(db)
	batch := rq.class == "batch"
	if rq.route == routeSQL {
		var key []byte
		var keyOK bool
		t.timed(root, "sqlengine.frontend", func() {
			if !batch {
				key, _, keyOK = sess.ResultKey(rq.sql, nil)
			}
			sess.ClassifyCached(rq.sql)
		})
		if rc := e.web.ResultCache(); rc != nil && keyOK {
			key = append(key, 0)
			key = append(key, rq.format...)
			key = append(key, 0)
			key = strconv.AppendInt(key, int64(rq.maxRows), 10)
			hit := false
			t.timed(root, "resultcache.probe", func() { hit = rc.Probe(key, db.SchemaVersion()) != nil })
			if hit {
				return
			}
		}
	}
	class, label := sched.Interactive, rq.route.String()
	if batch {
		class = sched.Batch
	}
	var tk *sched.Ticket
	var err error
	name := "sched.admit." + class.String()
	t.timed(root, name, func() { tk, err = e.web.Sched().AdmitUser(context.Background(), class, label, rq.user) })
	if err != nil {
		return
	}
	var res *sqlengine.Result
	t.timed(root, "sqlengine.exec."+class.String(), func() {
		res, err = sess.ExecContext(context.Background(), rq.sql, sqlengine.ExecOptions{
			MaxRows: rq.maxRows, Timeout: web.PublicTimeout,
		})
	})
	if err == nil {
		tk.AddWork(res.PagesScanned, res.RowsScanned)
		t.mu.Lock()
		t.scanned += res.RowsScanned
		t.returned += int64(len(res.Rows))
		t.mu.Unlock()
		t.timed(root, "web.serialize", func() { _ = web.WriteResult(discard{}, res, rq.format) })
	}
	t.timed(root, "sched.done", func() { tk.Done(err) })
}

// discard is a ResponseWriter that drops what is written.
type discard struct{}

func (discard) Header() http.Header         { return http.Header{} }
func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) WriteHeader(int)             {}

// dump writes the spans, one JSON object per line.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName returns the durations of the spans with the given name.
func (t *tracer) byName(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// byPrefix is byName over every span whose name starts with prefix.
func (t *tracer) byPrefix(prefix string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// transport returns, per request with a handler span, the client.http
// time the handler does not account for: connection, framing, loopback.
func (t *tracer) transport() []time.Duration {
	type pair struct{ client, handler int64 }
	per := map[uint64]*pair{}
	for _, s := range t.spans {
		p := per[s.Req]
		if p == nil {
			p = &pair{}
			per[s.Req] = p
		}
		switch s.Name {
		case "client.http":
			p.client += s.End - s.Start
		case "web.handler":
			p.handler += s.End - s.Start
		}
	}
	var out []time.Duration
	for _, p := range per {
		if p.client > 0 && p.handler > 0 {
			out = append(out, time.Duration(p.client-p.handler))
		}
	}
	return out
}

// selfTimes returns each span name's self time — its duration minus the
// part of it its children cover — summed over the phase.
func (t *tracer) selfTimes() map[string]time.Duration {
	type key struct {
		req uint64
		id  uint32
	}
	kids := map[key][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			k := key{s.Req, s.Parent}
			kids[k] = append(kids[k], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		cs := kids[key{s.Req, s.ID}]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, cur := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}
