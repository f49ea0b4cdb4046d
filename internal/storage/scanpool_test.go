package storage

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func fillHeap(t *testing.T, h *Heap, n int) {
	t.Helper()
	pad := make([]byte, 380)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := 0; i < n; i++ {
		if _, err := h.Append([]byte(fmt.Sprintf("rec%06d-%s", i, pad))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanBatchesJoinsWorkerErrors is the multi-volume failure case: when
// several workers fail concurrently, every error must surface — the old
// implementation drained a single error and silently dropped the rest.
func TestScanBatchesJoinsWorkerErrors(t *testing.T) {
	fg := NewMemFileGroup(4, 0)
	defer fg.Close()
	h := NewHeap(fg)
	fillHeap(t, h, 4000)
	const dop = 4
	if h.Pages() < dop {
		t.Fatalf("need at least %d pages, have %d", dop, h.Pages())
	}
	// Barrier: every worker reaches its first page callback before any of
	// them errors, so all four failures happen before the stop flag can
	// short-circuit the others.
	var barrier sync.WaitGroup
	barrier.Add(dop)
	workerErrs := make([]error, dop)
	err := h.Scan(context.Background(), dop, func(worker int) RecBatchFunc {
		workerErrs[worker] = fmt.Errorf("worker %d failed", worker)
		first := true
		fn := func(rids []RID, recs [][]byte) error {
			if first {
				first = false
				barrier.Done()
				barrier.Wait()
				return workerErrs[worker]
			}
			return nil
		}
		return fn
	})
	if err == nil {
		t.Fatal("scan succeeded, want joined worker errors")
	}
	for w := 0; w < dop; w++ {
		if !errors.Is(err, workerErrs[w]) {
			t.Errorf("joined error missing worker %d: %v", w, err)
		}
	}
}

// TestScanBatchesSingleErrorUnwrapped keeps the single-failure contract:
// one failing worker returns its error directly (no join wrapper), so
// sentinel comparisons in callers keep working.
func TestScanBatchesSingleErrorUnwrapped(t *testing.T) {
	fg := NewMemFileGroup(4, 0)
	defer fg.Close()
	h := NewHeap(fg)
	fillHeap(t, h, 2000)
	sentinel := errors.New("sentinel")
	err := h.Scan(context.Background(), 4, func(worker int) RecBatchFunc {
		fn := func(rids []RID, recs [][]byte) error {
			if worker == 0 {
				return sentinel
			}
			return nil
		}
		return fn
	})
	if err != sentinel {
		t.Fatalf("err = %v, want the sentinel unwrapped", err)
	}
}

// TestScanBatchesCtxCancel verifies serial and parallel scans stop once
// the context is done and report its error.
func TestScanBatchesCtxCancel(t *testing.T) {
	fg := NewMemFileGroup(4, 0)
	defer fg.Close()
	h := NewHeap(fg)
	fillHeap(t, h, 8000)
	for _, dop := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var pages atomic.Int64
		err := h.Scan(ctx, dop, func(worker int) RecBatchFunc {
			fn := func(rids []RID, recs [][]byte) error {
				if pages.Add(1) == 2 {
					cancel()
				}
				return nil
			}
			return fn
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("dop=%d: err = %v, want context.Canceled", dop, err)
		}
		if n, total := pages.Load(), int64(h.Pages()); n >= total {
			t.Errorf("dop=%d: visited all %d pages despite cancellation", dop, total)
		}
	}
}

// gateVolume blocks every page read on a gate channel and counts reads
// issued after the test flips the cancelled flag. It simulates a volume
// that is busy (a long simulated seek) while the client gives up.
type gateVolume struct {
	Volume
	gate        chan struct{} // closed to release blocked reads
	reads       atomic.Int64
	cancelled   atomic.Bool
	afterCancel atomic.Int64
}

func (v *gateVolume) ReadPage(n uint32, buf []byte) error {
	if v.cancelled.Load() {
		v.afterCancel.Add(1)
	}
	v.reads.Add(1)
	<-v.gate
	return v.Volume.ReadPage(n, buf)
}

// TestScanCancelWhileVolumeBlocked pins the per-page cancellation
// contract: a scan whose volume reads are stuck must, once the context is
// cancelled and the in-flight reads return, issue ZERO further page
// reads. The workers were all blocked inside ReadPage at cancel time, so
// any later read means a scan path ran a page without re-checking its
// context (the serial path used to check only every 16th page; the
// parallel path only per 8-page morsel claim).
func TestScanCancelWhileVolumeBlocked(t *testing.T) {
	for _, dop := range []int{1, 4} {
		gv := &gateVolume{Volume: NewMemVolume(), gate: make(chan struct{})}
		fg := NewFileGroup([]Volume{gv}, 0) // no cache: every read hits the volume
		h := NewHeap(fg)
		close(gv.gate) // loading goes through ReadPage too; let it pass
		fillHeap(t, h, 4000)
		gv.gate = make(chan struct{})
		gv.reads.Store(0)

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- h.Scan(ctx, dop, func(worker int) RecBatchFunc {
				return func(rids []RID, recs [][]byte) error { return nil }
			})
		}()

		// Wait until every worker is stuck inside a ReadPage, then cancel
		// and release the gate.
		deadline := time.Now().Add(5 * time.Second)
		for gv.reads.Load() < int64(dop) {
			if time.Now().After(deadline) {
				t.Fatalf("dop=%d: only %d reads in flight", dop, gv.reads.Load())
			}
			time.Sleep(100 * time.Microsecond)
		}
		gv.cancelled.Store(true)
		cancel()
		close(gv.gate)

		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("dop=%d: err = %v, want context.Canceled", dop, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("dop=%d: scan still running after cancel + gate release", dop)
		}
		if n := gv.afterCancel.Load(); n != 0 {
			t.Errorf("dop=%d: %d page reads issued after cancellation", dop, n)
		}
		fg.Close()
	}
}

// TestScanPoolPersists proves the tentpole property: repeated parallel
// scans reuse the file group's worker pool instead of spawning goroutines
// per query.
func TestScanPoolPersists(t *testing.T) {
	fg := NewMemFileGroup(4, 0)
	defer fg.Close()
	h := NewHeap(fg)
	fillHeap(t, h, 4000)
	countScan := func() int64 {
		var rows atomic.Int64
		if err := scanRecs(h, 4, func(rid RID, rec []byte) error {
			rows.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return rows.Load()
	}
	want := countScan() // warm-up creates the pool
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if got := countScan(); got != want {
			t.Fatalf("scan %d saw %d rows, want %d", i, got, want)
		}
	}
	// Allow scheduling noise, but 50 scans must not have grown the
	// goroutine count by anything like 50 × dop.
	if now := runtime.NumGoroutine(); now > base+16 {
		t.Errorf("goroutines grew from %d to %d across 50 scans", base, now)
	}
	st := fg.ScanPoolStats()
	if st.Workers == 0 || st.Jobs < 50 {
		t.Errorf("pool stats = %+v, want a live pool with >= 50 jobs", st)
	}
}

// TestScanPoolCloseStopsWorkers verifies Close retires the pool's
// goroutines (and that scans still complete inline afterwards).
func TestScanPoolCloseStopsWorkers(t *testing.T) {
	fg := NewMemFileGroup(4, 0)
	h := NewHeap(fg)
	fillHeap(t, h, 2000)
	if err := scanRecs(h, 4, func(RID, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	workers := fg.ScanPoolStats().Workers
	if workers == 0 {
		t.Fatal("no pool after a parallel scan")
	}
	before := runtime.NumGoroutine()
	if err := fg.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before-workers+6 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines still at %d (was %d with %d workers)",
				runtime.NumGoroutine(), before, workers)
		}
		time.Sleep(time.Millisecond)
	}
}
