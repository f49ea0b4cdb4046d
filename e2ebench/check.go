package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"time"

	"skyserver/internal/sqlengine"
	"skyserver/internal/val"
	"skyserver/internal/web"
)

// checker verifies answers after the timed window, so verification
// never competes with the server for the CPU while it is measured.
type checker struct {
	e    *env
	w    *world
	refs map[string]*reference
}

// reference is an in-process answer serialized like the server's:
// the CSV header and data lines, with the load step of each line's
// leading objID (-1 for survey rows and for answers without objIDs).
type reference struct {
	header string
	lines  []string
	steps  []int64
	err    error
}

func newChecker(e *env, w *world) *checker {
	return &checker{e: e, w: w, refs: map[string]*reference{}}
}

// check returns nil when r, sent in phase ph, succeeded and its answer
// is right; wrong tells a wrong answer from a request that did not
// complete.
func (ck *checker) check(ph *phase, r *record) (wrong bool, err error) {
	rq := r.rq
	switch {
	case r.err != nil:
		return false, r.err
	case r.status != http.StatusOK:
		return false, fmt.Errorf("status %d: %.200s", r.status, r.body)
	case rq.route != routeJob && r.class != rq.class && !(r.class == "batch" && ph.stalePlan(r)):
		return true, fmt.Errorf("X-Query-Class %q, want %q", r.class, rq.class)
	}
	body := string(r.body)
	switch rq.route {
	case routeHome, routeObj:
		if !strings.Contains(body, rq.want) {
			return true, fmt.Errorf("page lacks %q", rq.want)
		}
		return false, nil
	case routePlaces:
		if !strings.Contains(body, rq.want) || strings.Count(body, "<li>") != 20 {
			return true, fmt.Errorf("gallery does not list 20 objects")
		}
		return false, nil
	}
	header, lines := splitCSV(body)
	ref := ck.reference(rq.sql)
	if ref.err != nil {
		return true, fmt.Errorf("reference: %v", ref.err)
	}
	if header != ref.header {
		return true, fmt.Errorf("header %q, want %q", header, ref.header)
	}
	if err := ref.matches(lines, r.lo, r.hi, rq.maxRows); err != nil {
		return true, err
	}
	if rq.query != nil {
		res := &sqlengine.Result{Rows: make([]val.Row, len(lines))}
		if err := rq.query.Check(res, ck.w.truth); err != nil {
			return true, fmt.Errorf("Q%s: %v", rq.query.ID, err)
		}
	}
	ids := map[int64]bool{}
	for _, l := range lines {
		ids[leadingID(l)] = true
	}
	if rq.mustHave != 0 && !ids[rq.mustHave] {
		return true, fmt.Errorf("answer lacks new row %d", rq.mustHave)
	}
	if rq.mustLack != 0 && ids[rq.mustLack] {
		return true, fmt.Errorf("answer has row %d before it was loaded", rq.mustLack)
	}
	return false, nil
}

// reference runs sql in-process without a row limit and serializes the
// answer with web.WriteResult, as the server does.
func (ck *checker) reference(sql string) *reference {
	if ref, ok := ck.refs[sql]; ok {
		return ref
	}
	ref := &reference{}
	ck.refs[sql] = ref
	res, err := ck.e.sky.Session().Exec(sql, sqlengine.ExecOptions{})
	if err != nil {
		ref.err = err
		return ref
	}
	rec := httptest.NewRecorder()
	if err := web.WriteResult(rec, res, "csv"); err != nil {
		ref.err = err
		return ref
	}
	ref.header, ref.lines = splitCSV(rec.Body.String())
	for _, l := range ref.lines {
		ref.steps = append(ref.steps, stepOf(leadingID(l)))
	}
	return ref
}

// matches checks an answer against the reference at the data the
// request could have seen: every row of a step completed before it was
// sent (lo), and no row of a step started after it was answered (hi).
// Without a load step in between the answer must equal the reference
// at that data exactly; across one, it may hold any part of the
// overlapping steps' rows.
func (ref *reference) matches(lines []string, lo, hi int64, maxRows int) error {
	var must, may []string
	for i, l := range ref.lines {
		switch s := ref.steps[i]; {
		case s < lo:
			must = append(must, l)
		case s < hi:
			may = append(may, l)
		}
	}
	if len(must)+len(may) > maxRows {
		return fmt.Errorf("reference has %d rows, over the %d-row limit: cannot check", len(must)+len(may), maxRows)
	}
	got := append([]string(nil), lines...)
	sort.Strings(got)
	sort.Strings(must)
	rest, ok := subtract(got, must)
	if !ok {
		return fmt.Errorf("answer has %d rows and misses some of the %d expected", len(lines), len(must))
	}
	sort.Strings(may)
	if _, ok := subtract(may, rest); !ok {
		return fmt.Errorf("answer has rows the data did not hold (%d beyond the %d expected)", len(rest), len(must))
	}
	return nil
}

// subtract removes the sorted multiset b from the sorted multiset a,
// reporting false if b is not contained in a.
func subtract(a, b []string) ([]string, bool) {
	var out []string
	j := 0
	for _, x := range a {
		if j < len(b) && x == b[j] {
			j++
			continue
		}
		if j < len(b) && x > b[j] {
			return nil, false
		}
		out = append(out, x)
	}
	return out, j == len(b)
}

// splitCSV returns the header and data lines of a CSV answer.
func splitCSV(body string) (string, []string) {
	lines := strings.Split(strings.TrimRight(body, "\r\n"), "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], "\r")
	}
	if len(lines) == 0 {
		return "", nil
	}
	return lines[0], lines[1:]
}

// leadingID parses the first CSV field as an objID (0 if it is not one).
func leadingID(line string) int64 {
	f, _, _ := strings.Cut(line, ",")
	id, _ := strconv.ParseInt(f, 10, 64)
	return id
}

// stalePlan reports whether r's statement shape may have had no valid
// cached plan when the server classified it; the server admits such a
// request as batch until an execution compiles the shape again. Every
// PhotoObj insert bumps the table's data version, invalidating the
// plans that read it, so a shape is stale while a load step runs. After
// the step ends it stays stale until a request of the shape sent after
// the step ended completes, and after that request only once every
// request of the shape sent before the step ended has completed: such a
// request may compile against the old data and store its stale plan
// last. A shape no request of the phase has completed yet counts as
// stale as well.
func (ph *phase) stalePlan(r *record) bool {
	if r.rq.shape == "" {
		return false
	}
	var end time.Duration
	for _, s := range ph.steps {
		if s.at < r.done {
			if r.sent < s.at+s.took {
				return true
			}
			end = max(end, s.at+s.took)
		}
	}
	fresh := end
	for _, q := range ph.records {
		if q != r && q.rq.shape == r.rq.shape && q.sent < end {
			fresh = max(fresh, q.done)
		}
	}
	for _, q := range ph.records {
		if q != r && q.rq.shape == r.rq.shape && q.sent >= fresh && q.done <= r.sent {
			return false
		}
	}
	return true
}
