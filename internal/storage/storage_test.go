package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPageInsertAndRead(t *testing.T) {
	p := newPage()
	recs := [][]byte{
		[]byte("first record"),
		[]byte("second"),
		bytes.Repeat([]byte{0xAB}, 1000),
	}
	var slots []int
	for _, r := range recs {
		s, ok := p.insert(r)
		if !ok {
			t.Fatalf("insert of %d bytes failed", len(r))
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, ok := p.record(s)
		if !ok || !bytes.Equal(got, recs[i]) {
			t.Fatalf("record(%d) mismatch", s)
		}
	}
	if _, ok := p.record(99); ok {
		t.Error("out-of-range slot returned a record")
	}
}

func TestPageFillAndOverflow(t *testing.T) {
	p := newPage()
	rec := bytes.Repeat([]byte{1}, 1000)
	n := 0
	for {
		if _, ok := p.insert(rec); !ok {
			break
		}
		n++
	}
	// 8192 - 4 header; each record costs 1000 + 4 slot = 1004.
	if want := (PageSize - pageHeaderSize) / 1004; n != want {
		t.Errorf("fit %d records, want %d", n, want)
	}
	if _, ok := p.insert([]byte{1}); !ok {
		t.Error("tiny record should still fit after large-record overflow")
	}
}

func TestPageMaxRecord(t *testing.T) {
	p := newPage()
	if _, ok := p.insert(bytes.Repeat([]byte{1}, MaxRecordSize)); !ok {
		t.Error("max-size record rejected")
	}
	p2 := newPage()
	if _, ok := p2.insert(bytes.Repeat([]byte{1}, MaxRecordSize+1)); ok {
		t.Error("oversized record accepted")
	}
}

func TestPageDelete(t *testing.T) {
	p := newPage()
	s, _ := p.insert([]byte("doomed"))
	if !p.del(s) {
		t.Fatal("delete failed")
	}
	if _, ok := p.record(s); ok {
		t.Error("tombstoned record still readable")
	}
	if p.del(s) {
		t.Error("double delete succeeded")
	}
	if p.del(42) {
		t.Error("deleting invalid slot succeeded")
	}
}

func TestMemVolumeRoundTrip(t *testing.T) {
	v := NewMemVolume()
	buf := make([]byte, PageSize)
	buf[0] = 0xCD
	if err := v.WritePage(3, buf); err != nil {
		t.Fatal(err)
	}
	if v.Pages() != 4 {
		t.Errorf("Pages = %d, want 4", v.Pages())
	}
	got := make([]byte, PageSize)
	if err := v.ReadPage(3, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xCD {
		t.Error("read back wrong data")
	}
	if err := v.ReadPage(9, got); err == nil {
		t.Error("read past end accepted")
	}
	if err := v.WritePage(0, []byte{1}); err == nil {
		t.Error("short page accepted")
	}
}

func TestFileVolumeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol0.dat")
	v, err := NewFileVolume(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	buf := make([]byte, PageSize)
	for i := uint32(0); i < 5; i++ {
		buf[0] = byte(i)
		if err := v.WritePage(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, PageSize)
	for i := uint32(0); i < 5; i++ {
		if err := v.ReadPage(i, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Errorf("page %d corrupt", i)
		}
	}
	if err := v.ReadPage(7, got); err == nil {
		t.Error("read past end accepted")
	}
}

func TestHeapAppendGet(t *testing.T) {
	fg := NewMemFileGroup(4, 64)
	h := NewHeap(fg)
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := h.Append([]byte(fmt.Sprintf("record-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.Rows() != 100 {
		t.Errorf("Rows = %d", h.Rows())
	}
	buf := make([]byte, PageSize)
	for i, rid := range rids {
		rec, err := h.Get(rid, buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("record-%03d", i); string(rec) != want {
			t.Errorf("Get(%v) = %q, want %q", rid, rec, want)
		}
	}
	if _, err := h.Get(MakeRID(999, 0), buf); err == nil {
		t.Error("Get of absent page accepted")
	}
}

func TestHeapSpansPagesAndVolumes(t *testing.T) {
	fg := NewMemFileGroup(4, 64)
	h := NewHeap(fg)
	rec := bytes.Repeat([]byte{7}, 3000) // ~2 per page, forces many pages
	for i := 0; i < 50; i++ {
		if _, err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if h.Pages() < 20 {
		t.Errorf("expected ≥20 pages, got %d", h.Pages())
	}
	// All four volumes must hold pages (striping).
	for i, v := range fg.vols {
		if v.Pages() == 0 {
			t.Errorf("volume %d received no pages", i)
		}
	}
}

func TestHeapDelete(t *testing.T) {
	fg := NewMemFileGroup(2, 64)
	h := NewHeap(fg)
	rid, _ := h.Append([]byte("doomed"))
	keep, _ := h.Append([]byte("keeper"))
	ok, err := h.Delete(rid)
	if err != nil || !ok {
		t.Fatalf("Delete: %v %v", ok, err)
	}
	if h.Rows() != 1 {
		t.Errorf("Rows = %d after delete", h.Rows())
	}
	buf := make([]byte, PageSize)
	if _, err := h.Get(rid, buf); err == nil {
		t.Error("deleted record still readable")
	}
	if rec, err := h.Get(keep, buf); err != nil || string(rec) != "keeper" {
		t.Error("surviving record damaged by delete")
	}
	if ok, _ := h.Delete(rid); ok {
		t.Error("double delete reported live record")
	}
	if _, err := h.Delete(MakeRID(999, 0)); err == nil {
		t.Error("delete of absent page accepted")
	}
}

// scanRecs scans h calling fn once per live record; fn is shared by every
// worker, so it runs concurrently when dop > 1.
func scanRecs(h *Heap, dop int, fn func(rid RID, rec []byte) error) error {
	return h.Scan(context.Background(), dop, func(int) RecBatchFunc {
		return func(rids []RID, recs [][]byte) error {
			for i, rec := range recs {
				if err := fn(rids[i], rec); err != nil {
					return err
				}
			}
			return nil
		}
	})
}

func TestHeapScanSerialAndParallel(t *testing.T) {
	fg := NewMemFileGroup(4, 256)
	h := NewHeap(fg)
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := h.Append([]byte(fmt.Sprintf("r%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, dop := range []int{1, 4, 16} {
		var count atomic.Int64
		seen := sync.Map{}
		err := scanRecs(h, dop, func(rid RID, rec []byte) error {
			count.Add(1)
			if _, dup := seen.LoadOrStore(rid, true); dup {
				return fmt.Errorf("rid %v visited twice", rid)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		if count.Load() != n {
			t.Errorf("dop=%d visited %d, want %d", dop, count.Load(), n)
		}
	}
}

func TestHeapScanSkipsDeleted(t *testing.T) {
	fg := NewMemFileGroup(2, 64)
	h := NewHeap(fg)
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, _ := h.Append([]byte{byte(i)})
		rids = append(rids, rid)
	}
	for i := 0; i < 100; i += 2 {
		if _, err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	_ = scanRecs(h, 1, func(rid RID, rec []byte) error {
		if rec[0]%2 == 0 {
			t.Errorf("deleted record %d surfaced in scan", rec[0])
		}
		n++
		return nil
	})
	if n != 50 {
		t.Errorf("scan visited %d, want 50", n)
	}
}

var errStop = errors.New("stop")

func TestHeapScanEarlyStop(t *testing.T) {
	fg := NewMemFileGroup(4, 256)
	h := NewHeap(fg)
	rec := bytes.Repeat([]byte{1}, 2000)
	for i := 0; i < 1000; i++ {
		if _, err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	var visited atomic.Int64
	err := scanRecs(h, 4, func(rid RID, rec []byte) error {
		if visited.Add(1) >= 10 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want errStop", err)
	}
	if v := visited.Load(); v > 200 {
		t.Errorf("early stop scanned %d records; abort flag not effective", v)
	}
}

func TestHeapEmptyScan(t *testing.T) {
	h := NewHeap(NewMemFileGroup(2, 8))
	if err := scanRecs(h, 4, func(RID, []byte) error { return errStop }); err != nil {
		t.Errorf("empty scan: %v", err)
	}
}

func TestHeapRecordTooLarge(t *testing.T) {
	h := NewHeap(NewMemFileGroup(1, 8))
	if _, err := h.Append(bytes.Repeat([]byte{1}, MaxRecordSize+1)); err == nil {
		t.Error("oversized record accepted")
	}
}

func TestHeapBytesAccounting(t *testing.T) {
	h := NewHeap(NewMemFileGroup(2, 8))
	rid, _ := h.Append(bytes.Repeat([]byte{1}, 100))
	_, _ = h.Append(bytes.Repeat([]byte{1}, 200))
	if h.Bytes() != 300 {
		t.Errorf("Bytes = %d, want 300", h.Bytes())
	}
	_, _ = h.Delete(rid)
	if h.Bytes() != 200 {
		t.Errorf("Bytes after delete = %d, want 200", h.Bytes())
	}
}

func TestHeapRoundTripProperty(t *testing.T) {
	f := func(payloads [][]byte) bool {
		fg := NewMemFileGroup(3, 64)
		h := NewHeap(fg)
		var rids []RID
		var kept [][]byte
		for _, p := range payloads {
			if len(p) > MaxRecordSize {
				continue
			}
			rid, err := h.Append(p)
			if err != nil {
				return false
			}
			rids = append(rids, rid)
			kept = append(kept, p)
		}
		buf := make([]byte, PageSize)
		for i, rid := range rids {
			rec, err := h.Get(rid, buf)
			if err != nil || !bytes.Equal(rec, kept[i]) {
				return false
			}
		}
		return h.Rows() == uint64(len(rids))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPageCacheWarmReads(t *testing.T) {
	fg := NewMemFileGroup(2, 1024)
	h := NewHeap(fg)
	for i := 0; i < 500; i++ {
		_, _ = h.Append(bytes.Repeat([]byte{byte(i)}, 1000))
	}
	fg.DropCache()
	before := fg.PhysReads()
	_ = scanRecs(h, 1, func(RID, []byte) error { return nil })
	coldReads := fg.PhysReads() - before

	before = fg.PhysReads()
	_ = scanRecs(h, 1, func(RID, []byte) error { return nil })
	warmReads := fg.PhysReads() - before

	if coldReads == 0 {
		t.Fatal("cold scan performed no physical reads")
	}
	if warmReads != 0 {
		t.Errorf("warm scan performed %d physical reads, want 0", warmReads)
	}
}

func TestDropCacheForcesPhysicalReads(t *testing.T) {
	fg := NewMemFileGroup(2, 1024)
	h := NewHeap(fg)
	for i := 0; i < 100; i++ {
		_, _ = h.Append(bytes.Repeat([]byte{1}, 1000))
	}
	_ = scanRecs(h, 1, func(RID, []byte) error { return nil }) // warm it
	fg.DropCache()
	before := fg.PhysReads()
	_ = scanRecs(h, 1, func(RID, []byte) error { return nil })
	if fg.PhysReads() == before {
		t.Error("scan after DropCache read nothing physically")
	}
}

func TestPacerRate(t *testing.T) {
	// 100 model-MB/s with SpeedUp 50 → 5000 MB/s wall: 16 MB ≈ 3.2 ms.
	p := newPacer(100, 50)
	const total = 16 * 1024 * 1024
	start := time.Now()
	for done := 0; done < total; done += PageSize {
		p.wait(PageSize)
	}
	elapsed := time.Since(start).Seconds()
	wantSec := float64(total) / (100e6 * 50)
	if elapsed < wantSec*0.5 || elapsed > wantSec*4+0.05 {
		t.Errorf("paced 16MB in %.4fs, want ≈%.4fs", elapsed, wantSec)
	}
}

// throttledScanRate builds a striped heap of pagesPerDisk pages per disk
// under the model, scans it cold, and returns the model-MB/s achieved.
func throttledScanRate(t *testing.T, disks, pagesPerDisk int, cfg DiskModelConfig) float64 {
	t.Helper()
	raw := make([]Volume, disks)
	for i := range raw {
		raw[i] = NewMemVolume()
	}
	vols := NewThrottledVolumes(raw, cfg)
	fg := NewFileGroup(vols, 0) // no cache: every read pays the model
	h := NewHeap(fg)
	rec := bytes.Repeat([]byte{1}, 7900) // ~1 record per page
	for i := 0; i < pagesPerDisk*disks; i++ {
		if _, err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := scanRecs(h, disks, func(RID, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	modelSec := time.Since(start).Seconds() * cfg.SpeedUp
	return float64(fg.PhysBytes()) / 1e6 / modelSec
}

func TestThrottledScanScalesWithDisks(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock throughput assertion; race instrumentation skews the rate")
	}
	// With per-disk 40 model-MB/s and no controller/bus caps, scanning a
	// striped heap with one worker per volume should scale nearly
	// linearly from 1 to 4 disks.
	cfg := DiskModelConfig{DiskMBps: 40, DisksPerController: 100, SpeedUp: 20}
	one := throttledScanRate(t, 1, 1024, cfg)
	four := throttledScanRate(t, 4, 1024, cfg)
	if one < 25 || one > 60 {
		t.Errorf("1-disk rate = %.1f model-MB/s, want ≈40", one)
	}
	if four < one*2.5 {
		t.Errorf("4-disk rate %.1f does not scale from 1-disk %.1f", four, one)
	}
}

func TestControllerCap(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock throughput assertion; race instrumentation skews the rate")
	}
	// 6 disks on one controller capped at 119 must not exceed the cap.
	cfg := DiskModelConfig{DiskMBps: 40, ControllerMBps: 119, DisksPerController: 6, SpeedUp: 20}
	rate := throttledScanRate(t, 6, 512, cfg)
	if rate > 119*1.3 {
		t.Errorf("rate %.1f exceeds 119 MB/s controller cap", rate)
	}
	if rate < 119*0.5 {
		t.Errorf("rate %.1f far below controller cap; pacing too strict", rate)
	}
}

func TestRIDEncoding(t *testing.T) {
	f := func(pg uint32, slot uint16) bool {
		r := MakeRID(uint64(pg), int(slot))
		return r.Page() == uint64(pg) && r.Slot() == int(slot)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkHeapAppend(b *testing.B) {
	fg := NewMemFileGroup(4, 1024)
	h := NewHeap(fg)
	rec := bytes.Repeat([]byte{1}, 2000)
	b.ReportAllocs()
	b.SetBytes(int64(len(rec)))
	for i := 0; i < b.N; i++ {
		if _, err := h.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapScanWarm(b *testing.B) {
	fg := NewMemFileGroup(4, 1<<20)
	h := NewHeap(fg)
	rec := bytes.Repeat([]byte{1}, 2000)
	for i := 0; i < 10000; i++ {
		_, _ = h.Append(rec)
	}
	noop := func([]RID, [][]byte) error { return nil }
	b.ResetTimer()
	b.SetBytes(int64(10000 * len(rec)))
	for i := 0; i < b.N; i++ {
		if err := h.Scan(context.Background(), 4, func(int) RecBatchFunc { return noop }); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDeleteThenAppendDoesNotResurrect(t *testing.T) {
	// Regression: Delete on the open (last) page must tombstone the open
	// buffer too, or the next Append's write-through resurrects the row.
	fg := NewMemFileGroup(1, 16)
	h := NewHeap(fg)
	rid1, _ := h.Append([]byte("victim"))
	if ok, err := h.Delete(rid1); !ok || err != nil {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, err := h.Append([]byte("later")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if _, err := h.Get(rid1, buf); err == nil {
		t.Fatal("deleted record resurrected by subsequent append")
	}
	n := 0
	_ = scanRecs(h, 1, func(RID, []byte) error { n++; return nil })
	if n != 1 {
		t.Fatalf("scan sees %d rows, want 1", n)
	}
}
