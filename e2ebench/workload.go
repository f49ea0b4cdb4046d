package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"skyserver/internal/htm"
	"skyserver/internal/pipeline"
	"skyserver/internal/queries"
	"skyserver/internal/schema"
	"skyserver/internal/sky"
	"skyserver/internal/sqlengine"
	"skyserver/internal/traffic"
	"skyserver/internal/web"
)

// route names the server entry point a request exercises.
type route int

const (
	routeHome   route = iota // static home page, ungated
	routePlaces              // famous-places gallery (top-20 Galaxy scan)
	routeObj                 // explore/obj.asp drill-down
	routeRect                // navigator rectangle (fGetObjFromRect)
	routeSQL                 // ad-hoc SQL endpoint (sync)
	routeJob                 // /api/v1/jobs submit, poll, fetch
)

var routeNames = [...]string{"home", "places", "obj", "rect", "sql", "job"}

func (r route) String() string { return routeNames[r] }

// request is one generated request plus what its answer must satisfy.
type request struct {
	route route
	url   string // path and query, relative to the server base
	user  string // X-User identity (batch and jobs)
	// class is the X-Query-Class the response must carry ("" for the
	// ungated home page, which sends none).
	class string
	// sql is the statement whose in-process answer the response body
	// must equal (routeSQL, routeRect, routeJob); format and maxRows
	// are the output format and row limit the server applies.
	sql     string
	format  string
	maxRows int
	// query is the Figure 13 query whose Check the answer must pass.
	query *queries.Query
	// want is a substring an HTML page must contain.
	want string
	// mustHave / mustLack: objIDs the answer must (not) contain — the
	// ingest read-back checks.
	mustHave, mustLack int64
	// region is the spatial region of cone and rectangle reads; traced
	// runs time its HTM cover and shard route.
	region *region
	// interactive requests count toward the interactive latency.
	interactive bool
	// shape is the plan-cache shape (the normalized statement) of an SQL
	// request whose plan a load step invalidates ("" when none does).
	shape string
}

type region struct {
	circle           bool
	ra, dec, r       float64 // circle: centre and radius in arcmin
	ra1, ra2, d1, d2 float64 // rectangle
}

// cover computes the region's HTM cover the way the spatial TVFs do.
func (g *region) cover() []htm.Range {
	if g.circle {
		return htm.CoverCircleEq(g.ra, g.dec, g.r)
	}
	cx, err := htm.Rect(g.ra1, g.d1, g.ra2, g.d2)
	if err != nil {
		return nil
	}
	return cx.CoverWith(htm.CoverOptions{Depth: schema.HTMDepth})
}

// arrival is an open-loop request and the offset at which it is due.
type arrival struct {
	at time.Duration
	rq *request
}

// plan is everything one phase sends.
type plan struct {
	open []arrival // open-loop reads (all workloads)
	// analyst_flood: the closed-loop cycle, its think time, and the job
	// submissions.
	cycle []*request
	think time.Duration
	jobs  []arrival
	// cone_ingest: one load step per entry.
	steps []ingestStep
	// distinctKeys counts distinct SQL result-cache keys in open.
	distinctKeys int
}

type ingestStep struct {
	at   time.Duration
	rows [][2]float64 // (ra, dec) of each new row
}

// world is what the generators draw from: the fixed-seed survey's
// footprint and object sample, read in-process before timing starts.
type world struct {
	raMin, raMax, decMin, decMax float64
	objIDs                       []int64 // primary PhotoObj objIDs, ascending
	batch                        []*queries.Query
	batchSQL                     []string
	truth                        pipeline.Truth
	db                           *sqlengine.DB
}

func loadWorld(e *env, sp *spec) (*world, error) {
	g := pipeline.Config{Scale: sp.Server.Scale, Seed: sp.Server.SurveySeed}.Footprint()
	w := &world{
		raMin: g.RA0, raMax: g.RA0 + float64(g.FieldsPerStrip)*sky.FieldHeightDeg,
		decMin: g.Dec0, decMax: g.Dec0 + float64(g.Stripes)*sky.StripeWidthDeg,
		truth: e.sky.Truth(), db: e.sky.DB().DB,
	}
	sess := e.sky.Session()
	res, err := sess.Exec("select objID from PhotoObj where mode = 1 order by objID", sqlengine.ExecOptions{})
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		w.objIDs = append(w.objIDs, row[0].I)
	}
	// The closed loop runs the Figure 13 queries the server classifies
	// batch, in Figure 13 order.
	for _, q := range queries.All() {
		sql, err := q.SQL(sess)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", q.ID, err)
		}
		class, err := e.sky.Session().Classify(sql)
		if err != nil {
			return nil, fmt.Errorf("query %s: %w", q.ID, err)
		}
		if class == sqlengine.ClassBatch {
			w.batch = append(w.batch, &q)
			w.batchSQL = append(w.batchSQL, sql)
		}
	}
	return w, nil
}

// zipfPick draws indexes into a sample with a Zipf skew, so a few keys
// repeat often and a long tail is seen once.
type zipfPick struct {
	z    *rand.Zipf
	perm []int
}

func newZipf(rng *rand.Rand, n int) *zipfPick {
	return &zipfPick{z: rand.NewZipf(rng, 1.1, 2, uint64(n-1)), perm: rng.Perm(n)}
}

func (z *zipfPick) next() int { return z.perm[z.z.Uint64()] }

// arrivals returns the offsets of round(rate·d) arrivals of a Poisson
// process over d, conditioned on that count: sorted uniform times. The
// offered load is then the same for every seed, so throughput compares
// across seeds.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(rate*d.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sqlURL(sql, format, class string) string {
	v := url.Values{"cmd": {sql}, "format": {format}}
	if class == "batch" {
		v.Set("class", "batch")
	}
	return "/en/tools/search/sql.asp?" + v.Encode()
}

// q9Seek is the explorer's SQL-search request, shaped like the Figure 13
// Q9 index seek on SpecObj(specClass, z).
func q9Seek(specClass int, zlo float64) string {
	return fmt.Sprintf("select specObjID, objID, z, zConf from SpecObj where specClass = %d and z between %.2f and %.2f",
		specClass, zlo, zlo+0.2)
}

// objSeek is a PhotoObj primary-key lookup.
func objSeek(id int64) string {
	return fmt.Sprintf("select objID, ra, dec, r, type from PhotoObj where objID = %d", id)
}

// rectSQL is the statement the navigator's rectangle route runs.
func rectSQL(g *region) string {
	return fmt.Sprintf("select objID, ra, dec, type, mode from fGetObjFromRect(%g, %g, %g, %g)",
		g.ra1, g.ra2, g.d1, g.d2)
}

func rectRequest(g *region) *request {
	v := url.Values{}
	v.Set("ra1", fmt.Sprint(g.ra1))
	v.Set("ra2", fmt.Sprint(g.ra2))
	v.Set("dec1", fmt.Sprint(g.d1))
	v.Set("dec2", fmt.Sprint(g.d2))
	v.Set("format", "csv")
	return &request{
		route: routeRect, url: "/en/tools/navi/objects?" + v.Encode(), class: "interactive",
		sql: rectSQL(g), format: "csv", maxRows: web.PublicMaxRows, region: g, interactive: true,
	}
}

// coneSQL is a cone search shaped like Figure 13's Q1: the HTM
// neighbourhood TVF joined to PhotoObj.
func coneSQL(g *region) string {
	return fmt.Sprintf(`select p.objID, p.ra, p.dec, p.type, n.distance from fGetNearbyObjEq(%.6f, %.6f, %.3f) as n join PhotoObj as p on p.objID = n.objID order by n.distance`,
		g.ra, g.dec, g.r)
}

func (w *world) coneRequest(g *region) *request {
	sql := coneSQL(g)
	return &request{
		route: routeSQL, url: sqlURL(sql, "csv", ""), class: "interactive",
		sql: sql, format: "csv", maxRows: web.PublicMaxRows, region: g, interactive: true,
		shape: w.shape(sql),
	}
}

// shape returns the plan-cache shape of sql: the normalized statement,
// which differs with the literals' signs as well as the text around them.
func (w *world) shape(sql string) string {
	key, _, _ := sqlengine.NewSession(w.db).ResultKey(sql, nil)
	shape, _, _ := bytes.Cut(key, []byte{0})
	return string(shape)
}

// explorerPlan maps the page views of the §7 access log onto the
// interactive routes, with Poisson arrivals at the workload's rate.
func explorerPlan(w *world, ws workloadSpec, rng *rand.Rand, d time.Duration) (*plan, error) {
	var log bytes.Buffer
	if _, err := traffic.Generate(traffic.Config{Seed: rng.Int63(), Days: int(ws.param("log_days"))}, &log); err != nil {
		return nil, err
	}
	var pages []string
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		en, err := traffic.ParseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if en.IsPage && !en.Crawler {
			// Language sub-webs serve the same tools.
			pages = append(pages, "/en/"+strings.SplitN(strings.TrimPrefix(en.Path, "/"), "/", 2)[1])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	objs := newZipf(rng, int(ws.param("obj_sample")))
	objSample := sampleIDs(rng, w.objIDs, int(ws.param("obj_sample")))
	nRect := int(ws.param("rect_sample"))
	rects := make([]*region, nRect)
	for i := range rects {
		rects[i] = w.randomRect(rng, ws.param("rect_deg"))
	}
	rectZ := newZipf(rng, nRect)
	nSeek := int(ws.param("seek_sample"))
	type seek struct {
		class int
		zlo   float64
	}
	seeks := make([]seek, nSeek)
	classes := []int{schema.SpecClassQSO, schema.SpecClassGalaxy, schema.SpecClassStar}
	for i := range seeks {
		seeks[i] = seek{classes[rng.Intn(len(classes))], math.Round(rng.Float64()*300) / 100}
	}
	seekZ := newZipf(rng, nSeek)

	p := &plan{}
	keys := map[string]bool{}
	for i, at := range arrivals(rng, ws.RateRPS, d) {
		page := pages[i%len(pages)]
		var rq *request
		switch {
		case strings.HasPrefix(page, "/en/tools/places/"):
			rq = &request{route: routePlaces, url: "/en/tools/places/", class: "interactive", want: "Famous Places"}
		case strings.HasPrefix(page, "/en/tools/navi/"):
			rq = rectRequest(rects[rectZ.next()])
		case strings.HasPrefix(page, "/en/tools/explore/obj.asp"):
			id := objSample[objs.next()]
			rq = &request{route: routeObj, url: fmt.Sprintf("/en/tools/explore/obj.asp?id=%d", id),
				class: "interactive", want: fmt.Sprintf("<h1>Object %d</h1>", id)}
		case strings.HasPrefix(page, "/en/tools/search/sql.asp"):
			s := seeks[seekZ.next()]
			sql := q9Seek(s.class, s.zlo)
			keys[sql] = true
			rq = &request{route: routeSQL, url: sqlURL(sql, "csv", ""), class: "interactive",
				sql: sql, format: "csv", maxRows: web.PublicMaxRows}
		default:
			// The static pages (home, projects, help, download) all
			// cost the server what the home page costs.
			rq = &request{route: routeHome, url: "/en/", want: "SkyServer"}
		}
		rq.interactive = true
		p.open = append(p.open, arrival{at, rq})
	}
	p.distinctKeys = len(keys)
	return p, nil
}

// analystPlan is the closed loop of batch Figure 13 queries under
// rotating identities, plus an open loop of distinct interactive seeks
// and periodic async jobs.
func analystPlan(w *world, ws workloadSpec, rng *rand.Rand, d time.Duration) (*plan, error) {
	p := &plan{think: time.Duration(ws.param("think_ms") * float64(time.Millisecond))}
	users := int(ws.param("users"))
	for i, q := range w.batch {
		sql := w.batchSQL[i]
		rq := &request{
			route: routeSQL, url: sqlURL(sql, "csv", "batch"), class: "batch",
			user: fmt.Sprintf("analyst%d", i%users+1), sql: sql, format: "csv",
			maxRows: web.PublicMaxRows, query: q,
		}
		if q.ID == "1" {
			// Q1's cone: fGetNearbyObjEq(185, -0.5, 1).
			rq.region = &region{circle: true, ra: 185, dec: -0.5, r: 1}
		}
		p.cycle = append(p.cycle, rq)
	}
	ids := sampleIDs(rng, w.objIDs, len(w.objIDs))
	for i, at := range arrivals(rng, ws.RateRPS, d) {
		sql := objSeek(ids[i%len(ids)])
		p.open = append(p.open, arrival{at, &request{
			route: routeSQL, url: sqlURL(sql, "csv", ""), class: "interactive",
			sql: sql, format: "csv", maxRows: web.PublicMaxRows, interactive: true,
		}})
	}
	every := time.Duration(ws.param("job_every_s") * float64(time.Second))
	k := int(ws.param("job_stride"))
	off := rng.Intn(len(w.batch))
	for j, at := 0, every/2; at < d; j, at = j+1, at+every {
		i := (off + j*k) % len(w.batch)
		p.jobs = append(p.jobs, arrival{at, &request{
			route: routeJob, user: "jobs", sql: w.batchSQL[i], format: "csv",
			maxRows: web.JobMaxRows, query: w.batch[i],
		}})
	}
	return p, nil
}

// conePlan is an open loop of cone searches and navigator rectangles at
// fresh coordinates, beside a loader appending rows on a fixed cadence.
func conePlan(w *world, ws workloadSpec, rng *rand.Rand, d time.Duration) (*plan, error) {
	p := &plan{}
	coneFrac := ws.param("cone_frac")
	for _, at := range arrivals(rng, ws.RateRPS, d) {
		var rq *request
		if rng.Float64() < coneFrac {
			rq = w.coneRequest(w.randomCone(rng, ws.param("cone_arcmin")))
		} else {
			rq = rectRequest(w.randomRect(rng, ws.param("rect_deg")))
		}
		p.open = append(p.open, arrival{at, rq})
	}
	every := time.Duration(ws.param("step_every_s") * float64(time.Second))
	n := int(ws.param("step_rows"))
	for at := every / 2; at < d; at += every {
		st := ingestStep{at: at}
		for i := 0; i < n; i++ {
			g := w.randomCone(rng, 0)
			st.rows = append(st.rows, [2]float64{g.ra, g.dec})
		}
		p.steps = append(p.steps, st)
	}
	return p, nil
}

// margin keeps generated regions inside the footprint.
const margin = 0.1

func (w *world) randomCone(rng *rand.Rand, maxArcmin float64) *region {
	return &region{
		circle: true,
		ra:     w.raMin + margin + rng.Float64()*(w.raMax-w.raMin-2*margin),
		dec:    w.decMin + margin + rng.Float64()*(w.decMax-w.decMin-2*margin),
		r:      maxArcmin/2 + rng.Float64()*maxArcmin/2,
	}
}

func (w *world) randomRect(rng *rand.Rand, maxDeg float64) *region {
	c := w.randomCone(rng, 0)
	wd := maxDeg/2 + rng.Float64()*maxDeg/2
	ht := maxDeg/2 + rng.Float64()*maxDeg/2
	return &region{ra1: c.ra - wd/2, ra2: c.ra + wd/2, d1: c.dec - ht/2, d2: c.dec + ht/2}
}

// sampleIDs returns n ids drawn without replacement, in seeded order.
func sampleIDs(rng *rand.Rand, ids []int64, n int) []int64 {
	if n > len(ids) {
		n = len(ids)
	}
	out := make([]int64, n)
	for i, j := range rng.Perm(len(ids))[:n] {
		out[i] = ids[j]
	}
	return out
}
