package web

import (
	"encoding/json"
	"log"
	"net/http"
	"runtime/debug"
	"sync"

	"skyserver/internal/sched"
)

// SetReady flips the server's readiness. A server that is not ready sheds
// every query-running request with 503 + Retry-After ("draining") while the
// ungated status endpoints stay reachable — the drain half of graceful
// shutdown (see ServeGraceful).
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports whether the server is accepting query-running requests.
func (s *Server) Ready() bool { return !s.notReady.Load() }

// PanicsRecovered returns the number of handler panics the recovery
// middleware absorbed.
func (s *Server) PanicsRecovered() int64 { return s.panics.Load() }

// recoverWriter tracks whether a handler already started its response, so
// the recovery middleware knows whether a well-formed 500 can still be
// written after a panic. Pooled: the wrapper must not cost an allocation
// per request.
type recoverWriter struct {
	http.ResponseWriter
	started bool
}

func (rw *recoverWriter) WriteHeader(code int) {
	rw.started = true
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recoverWriter) Write(b []byte) (int, error) {
	rw.started = true
	return rw.ResponseWriter.Write(b)
}

var recoverWriterPool = sync.Pool{New: func() any { return new(recoverWriter) }}

// recovery converts a handler panic into a well-formed 500 (when the
// response has not started; an aborted stream otherwise) instead of letting
// net/http kill the connection with a blank reset, and counts the event for
// /x/health. http.ErrAbortHandler keeps its idiomatic meaning and passes
// through. The admission gate has already released the scheduler slot by
// the time the panic reaches this middleware (gate re-panics after
// Ticket.Done), so a panicking query frees its capacity like any failure.
func (s *Server) recovery(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := recoverWriterPool.Get().(*recoverWriter)
		rw.ResponseWriter, rw.started = w, false
		defer func() {
			started := rw.started
			rw.ResponseWriter = nil
			recoverWriterPool.Put(rw)
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel, per net/http docs
					panic(rec)
				}
				s.panics.Add(1)
				log.Printf("web: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				if !started {
					http.Error(w, "SkyServer internal error", http.StatusInternalServerError)
				}
			}
		}()
		h.ServeHTTP(rw, r)
	})
}

// handleHealth is the liveness/readiness probe: 200 while serving, 503
// while draining, with the fault-tolerance counters — handler and scan
// panics recovered, page read retries, checksum failures — and the
// scheduler occupancy. Ungated and cheap, so orchestrators and operators
// can watch a drain make progress. Field reference: docs/ops.md.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fg := s.sdb.DB.FileGroup()
	ad := s.sched.Stats()
	ready := s.Ready()
	doc := struct {
		Ready            bool   `json:"ready"`
		Draining         bool   `json:"draining"`
		PanicsRecovered  int64  `json:"panicsRecovered"`
		ScanPanics       int64  `json:"scanPanicsRecovered"`
		ReadRetries      uint64 `json:"readRetries"`
		ChecksumFailures uint64 `json:"checksumFailures"`
		Running          int    `json:"running"`
		Queued           int64  `json:"queued"`
	}{
		Ready:            ready,
		Draining:         !ready,
		PanicsRecovered:  s.panics.Load(),
		ScanPanics:       int64(fg.ScanPanics()),
		ReadRetries:      fg.ReadRetries(),
		ChecksumFailures: fg.ChecksumFails(),
		Running:          ad.Running,
		Queued:           ad.Queued,
	}
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(doc)
}

// shedDraining answers a query-running request arriving while the server
// drains: the same well-formed 503 + Retry-After contract as overload, so
// clients need one retry path for both. /api/ routes get the envelope.
func shedDraining(w http.ResponseWriter, r *http.Request, class sched.Class) {
	const msg = "SkyServer draining: restarting shortly, try again"
	if isAPI(r) {
		writeAPIError(w, http.StatusServiceUnavailable, class.String(), retryAfterSecs(class), msg)
		return
	}
	w.Header().Set("Retry-After", retryAfter(class))
	http.Error(w, msg, http.StatusServiceUnavailable)
}
