package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"skyserver/internal/core"
	"skyserver/internal/storage"
	"skyserver/internal/web"
)

// env is one SkyServer under test: the loaded database, the public web
// front end, and the loopback HTTP server in front of it.
type env struct {
	sky     *core.SkyServer
	web     *web.Server
	handler http.Handler
	srv     *http.Server
	base    string
	served  chan error
	jobsDir string
	vol     *volStats

	// tracer, when set, receives a web.handler span for every request
	// that carries the span header.
	tracer atomic.Pointer[tracer]

	// The ingest epoch: load steps started and completed so far.
	started, completed atomic.Int64
}

// setup builds the server for one workload and starts serving it.
func setup(sp *spec, wl workloadSpec, dir string) (*env, error) {
	e := &env{vol: &volStats{}}
	sky, err := core.Open(core.Config{
		Scale:      sp.Server.Scale,
		Seed:       sp.Server.SurveySeed,
		Shards:     sp.Server.Shards,
		CachePages: wl.CachePages,
		WrapVolume: func(_, _ int, v storage.Volume) storage.Volume {
			return &timedVolume{Volume: v, st: e.vol}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("core.Open: %w", err)
	}
	e.sky = sky
	e.jobsDir, err = os.MkdirTemp(dir, "jobs-")
	if err != nil {
		_ = sky.Close()
		return nil, err
	}
	e.web = sky.Web(web.Options{Public: true, JobsDir: e.jobsDir})
	e.handler = e.web.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: http.HandlerFunc(e.serve), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// serve is the benchmark's own wrapper around Server.Handler(): in a
// traced phase it times the handler, parented to the client's span.
func (e *env) serve(w http.ResponseWriter, r *http.Request) {
	tr := e.tracer.Load()
	if tr == nil {
		e.handler.ServeHTTP(w, r)
		return
	}
	req, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
	start := tr.now()
	e.handler.ServeHTTP(w, r)
	if ok {
		tr.add(req, parent, "web.handler", start, tr.now())
	}
}

// close stops the listener and waits for Serve to return, then releases
// the job service, the database and the job spill directory.
func (e *env) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = e.srv.Shutdown(ctx)
		cancel()
		if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "e2ebench: serve: %v\n", err)
		}
	}
	if e.web != nil {
		e.web.Close()
	}
	if e.sky != nil {
		_ = e.sky.Close()
	}
	if e.jobsDir != "" {
		_ = os.RemoveAll(e.jobsDir)
	}
}

// volStats counts physical page reads and, while on, times them.
type volStats struct {
	on    atomic.Bool
	mu    sync.Mutex
	reads []time.Duration
}

// timedVolume is the core.Config.WrapVolume hook: every physical page
// read (a page-cache miss) passes through it.
type timedVolume struct {
	storage.Volume
	st *volStats
}

func (v *timedVolume) ReadPage(n uint32, buf []byte) error {
	if !v.st.on.Load() {
		return v.Volume.ReadPage(n, buf)
	}
	start := time.Now()
	err := v.Volume.ReadPage(n, buf)
	d := time.Since(start)
	v.st.mu.Lock()
	v.st.reads = append(v.st.reads, d)
	v.st.mu.Unlock()
	return err
}

// takeReads returns the timed reads so far and clears them.
func (s *volStats) takeReads() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.reads
	s.reads = nil
	return r
}

// benchDir returns a directory under out for this process's scratch
// files (job spills), created if needed.
func benchDir(out string) (string, error) {
	dir := filepath.Join(out, "run")
	return dir, os.MkdirAll(dir, 0o755)
}
