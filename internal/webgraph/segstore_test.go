package webgraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"conceptweb/internal/framelog"
	"conceptweb/internal/webgen"
)

// faultFS injects write failures through the framelog.FS seam, like the
// fault harness in internal/lrec: a budget of bytes may persist, then writes
// fail — persisting their prefix first, like a real crash or a full disk
// mid-append.
type faultFS struct {
	framelog.OS

	mu        sync.Mutex
	remaining int64 // write bytes until the fault trips; <0 = unlimited
	tripped   bool
}

func (f *faultFS) OpenFile(n string, flag int, perm os.FileMode) (framelog.File, error) {
	file, err := f.OS.OpenFile(n, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

type faultFile struct {
	framelog.File
	fs *faultFS
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.remaining < 0 {
		return w.File.Write(p)
	}
	if w.fs.tripped || int64(len(p)) > w.fs.remaining {
		n := 0
		if !w.fs.tripped && w.fs.remaining > 0 {
			n, _ = w.File.Write(p[:w.fs.remaining])
		}
		w.fs.tripped = true
		w.fs.remaining = 0
		return n, errors.New("faultfs: disk full")
	}
	w.fs.remaining -= int64(len(p))
	return w.File.Write(p)
}

func testPage(i int) *Page {
	url := fmt.Sprintf("host-%02d.example/p/%04d", i%7, i)
	html := fmt.Sprintf("<html><head><title>page %d</title></head><body><h1>Page %d</h1>"+
		`<p>body text %d</p><a href="/p/%04d">next</a></body></html>`, i, i, i*i, i+1)
	return NewPage(url, html)
}

func openDisk(t *testing.T, dir string, opts DiskOptions) *Store {
	t.Helper()
	s, err := OpenDiskStore(dir, opts)
	if err != nil {
		t.Fatalf("OpenDiskStore: %v", err)
	}
	return s
}

// TestDiskStoreMatchesMemory drives both backends through the identical
// Put/Get/Delete/re-Put sequence over the full default world (2011 pages)
// and asserts every observable — membership, ordering, page bytes, hashes,
// outlinks, change detection — agrees. Small segments force mid-world rolls.
func TestDiskStoreMatchesMemory(t *testing.T) {
	world := webgen.Generate(webgen.DefaultConfig())
	mem := NewStore()
	disk := openDisk(t, t.TempDir(), DiskOptions{SegmentBytes: 1 << 20})
	defer disk.Close()

	for _, wp := range world.Pages() {
		p := NewPage(wp.URL, wp.HTML)
		cm := mem.Put(NewPage(wp.URL, wp.HTML))
		cd := disk.Put(p)
		if cm != cd {
			t.Fatalf("Put(%s): mem changed=%v disk changed=%v", wp.URL, cm, cd)
		}
	}
	if err := disk.Err(); err != nil {
		t.Fatalf("disk store latched: %v", err)
	}

	compare := func(stage string) {
		t.Helper()
		if mem.Len() != disk.Len() {
			t.Fatalf("%s: Len mem=%d disk=%d", stage, mem.Len(), disk.Len())
		}
		if !reflect.DeepEqual(mem.URLs(), disk.URLs()) {
			t.Fatalf("%s: URLs diverge", stage)
		}
		if !reflect.DeepEqual(mem.Hosts(), disk.Hosts()) {
			t.Fatalf("%s: Hosts diverge", stage)
		}
		for _, h := range mem.Hosts() {
			if !reflect.DeepEqual(mem.HostPages(h), disk.HostPages(h)) {
				t.Fatalf("%s: HostPages(%s) diverge", stage, h)
			}
		}
		for _, u := range mem.URLs() {
			mp, err1 := mem.Get(u)
			dp, err2 := disk.Get(u)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: Get(%s): mem err=%v disk err=%v", stage, u, err1, err2)
			}
			if mp.HTML != dp.HTML || mp.Hash != dp.Hash ||
				!reflect.DeepEqual(mp.Outlinks, dp.Outlinks) {
				t.Fatalf("%s: page %s differs between backends", stage, u)
			}
		}
	}
	compare("after put")

	// Delete a spread of pages from both; Has and membership must agree.
	urls := mem.URLs()
	var deleted []string
	for i := 0; i < len(urls); i += 7 {
		u := urls[i]
		dm, dd := mem.Delete(u), disk.Delete(u)
		if !dm || !dd {
			t.Fatalf("Delete(%s): mem=%v disk=%v", u, dm, dd)
		}
		deleted = append(deleted, u)
	}
	for _, u := range deleted {
		if mem.Has(u) || disk.Has(u) {
			t.Fatalf("deleted %s still present", u)
		}
	}
	compare("after delete")

	// Resurrect one deleted page with identical bytes: both backends must
	// report changed=true (the delete forgot the hash — the §7.3 gone-page
	// resurrection contract the maintenance loop depends on).
	res := deleted[0]
	html, _ := world.Fetch(res)
	if cm, cd := mem.Put(NewPage(res, html)), disk.Put(NewPage(res, html)); !cm || !cd {
		t.Fatalf("resurrection Put(%s): mem changed=%v disk changed=%v", res, cm, cd)
	}
	// And an unchanged re-Put reports false on both.
	if cm, cd := mem.Put(NewPage(res, html)), disk.Put(NewPage(res, html)); cm || cd {
		t.Fatalf("no-op Put(%s): mem changed=%v disk changed=%v", res, cm, cd)
	}
	compare("after resurrection")
}

// TestDiskStoreReopen: closing and reopening a directory reconstructs the
// same store from segment frames alone, including deletes and overwrites.
func TestDiskStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, DiskOptions{SegmentBytes: 4 << 10})
	const n = 200
	for i := 0; i < n; i++ {
		s.Put(testPage(i))
	}
	s.Delete(testPage(3).URL)
	s.Delete(testPage(99).URL)
	over := testPage(42)
	over.HTML += "<!-- v2 -->"
	s.Put(NewPage(over.URL, over.HTML))
	wantURLs := s.URLs()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r := openDisk(t, dir, DiskOptions{})
	defer r.Close()
	rec := r.DiskRecovery()
	if rec.TornTail {
		t.Error("clean close reported a torn tail")
	}
	if rec.Segments < 2 {
		t.Errorf("expected multiple segments with 4KiB rolls, got %d", rec.Segments)
	}
	if rec.Frames != n+3 { // n puts + 2 deletes + 1 overwrite
		t.Errorf("replayed %d frames, want %d", rec.Frames, n+3)
	}
	if !reflect.DeepEqual(r.URLs(), wantURLs) {
		t.Fatal("URLs diverge after reopen")
	}
	if r.Has(testPage(3).URL) || r.Has(testPage(99).URL) {
		t.Error("deleted pages survived reopen")
	}
	p, err := r.Get(over.URL)
	if err != nil || p.HTML != over.HTML {
		t.Fatalf("overwritten page after reopen: %v", err)
	}
	// The reopened store must keep appending correctly.
	extra := testPage(9999)
	if !r.Put(extra) {
		t.Fatal("Put after reopen reported unchanged")
	}
	if p, err := r.Get(extra.URL); err != nil || p.HTML != extra.HTML {
		t.Fatalf("page appended after reopen: %v", err)
	}
}

// TestDiskStoreTornTailRepair: garbage appended past the last valid frame —
// a crash mid-append — is truncated away on reopen, keeping every complete
// frame and reporting the repair.
func TestDiskStoreTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, DiskOptions{})
	const n = 25
	for i := 0; i < n; i++ {
		s.Put(testPage(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the tail: a partial frame that looks plausible up front.
	torn := append(encodePage(framePut, "torn.example/x", "<html>half")[:20], 0xff, 0x07)
	f, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openDisk(t, dir, DiskOptions{})
	defer r.Close()
	rec := r.DiskRecovery()
	if !rec.TornTail {
		t.Fatal("torn tail not detected")
	}
	if rec.TruncatedBytes != int64(len(torn)) {
		t.Errorf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(torn))
	}
	if rec.Frames != n {
		t.Errorf("replayed %d frames, want %d", rec.Frames, n)
	}
	if r.Len() != n {
		t.Errorf("Len = %d after repair, want %d", r.Len(), n)
	}
	// Appends after the repair must land at the truncated offset, not after
	// the (now removed) garbage.
	if !r.Put(testPage(500)) {
		t.Fatal("Put after repair reported unchanged")
	}
	if p, err := r.Get(testPage(500).URL); err != nil || p.HTML != testPage(500).HTML {
		t.Fatalf("Get after post-repair append: %v", err)
	}
}

// TestDiskStoreCrashMidWrite drives the same torn-tail contract through the
// fs seam: the fault filesystem persists only a prefix of one frame (a crash
// mid-write), and a fresh open of the directory repairs it.
func TestDiskStoreCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := &faultFS{remaining: -1}
	s := openDisk(t, dir, DiskOptions{fs: ffs})
	const n = 10
	for i := 0; i < n; i++ {
		s.Put(testPage(i))
	}
	// Allow half of the next frame to reach disk, then fail.
	ffs.mu.Lock()
	ffs.remaining = 30
	ffs.mu.Unlock()

	victim := testPage(n)
	if s.Put(victim) {
		t.Fatal("Put during crash reported changed")
	}
	if s.Err() == nil {
		t.Fatal("write failure did not latch the store")
	}
	// Latched means read-only, not dead: existing pages still serve (every
	// Get is a segment pread), and further writes are rejected.
	if _, err := s.Get(testPage(1).URL); err != nil {
		t.Fatalf("read after latch: %v", err)
	}
	if s.Put(testPage(n + 1)) {
		t.Error("Put accepted after latch")
	}
	if s.Delete(testPage(2).URL) {
		t.Error("Delete accepted after latch")
	}
	s.Close()

	r := openDisk(t, dir, DiskOptions{})
	defer r.Close()
	rec := r.DiskRecovery()
	if !rec.TornTail {
		t.Fatal("mid-write crash not detected as torn tail")
	}
	if rec.TruncatedBytes != 30 {
		t.Errorf("TruncatedBytes = %d, want 30", rec.TruncatedBytes)
	}
	if r.Len() != n {
		t.Fatalf("Len = %d after crash recovery, want %d", r.Len(), n)
	}
	if r.Has(victim.URL) {
		t.Error("half-written page resurrected")
	}
	for i := 0; i < n; i++ {
		if p, err := r.Get(testPage(i).URL); err != nil || p.HTML != testPage(i).HTML {
			t.Fatalf("page %d lost in crash recovery: %v", i, err)
		}
	}
}

// TestDiskStoreCorruptMiddleSegment: a bad frame anywhere before the final
// segment's tail is real corruption, not a torn tail — Open must refuse.
func TestDiskStoreCorruptMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	s := openDisk(t, dir, DiskOptions{SegmentBytes: 2 << 10})
	for i := 0; i < 60; i++ {
		s.Put(testPage(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg0 := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg0, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskStore(dir, DiskOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over corrupt middle segment: err = %v, want ErrCorrupt", err)
	}
}

// closedStore writes n test pages into a fresh one-segment directory,
// closes it, and returns the directory and the segment's path.
func closedStore(t *testing.T, n int) (dir, seg string) {
	t.Helper()
	dir = t.TempDir()
	s := openDisk(t, dir, DiskOptions{})
	for i := 0; i < n; i++ {
		s.Put(testPage(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, segName(0))
}

// TestDiskStoreMidSegmentCorruptionRefusesOpen: a flipped byte inside frame
// 3 of 10 in the closed last segment, with valid frames after it, is
// corruption, not a torn tail: Open refuses and cuts nothing. (It used to
// report a torn tail and truncate the seven acknowledged pages after it.)
func TestDiskStoreMidSegmentCorruptionRefusesOpen(t *testing.T) {
	dir, seg := closedStore(t, 10)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < 2; i++ {
		off += len(encodePage(framePut, testPage(i).URL, testPage(i).HTML))
	}
	data[off+framelog.HeaderSize+5] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskStore(dir, DiskOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-segment corruption: err = %v, want ErrCorrupt", err)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(len(data)) {
		t.Fatalf("segment size after refused open = %v (%v), want %d untouched", fi.Size(), err, len(data))
	}
}

// TestDiskStoreOldFormatRefused: a directory written in the pre-framelog
// segment format (pages-NNNN.seg) is refused, not read as one long torn tail
// and emptied.
func TestDiskStoreOldFormatRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "pages-0000.seg")
	body := []byte("\x8a\x13\x55\x01\x01\x0e\x00\x00\x00\x05\x00\x00\x00old.example/x<p/>")
	if err := os.WriteFile(old, body, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDiskStore(dir, DiskOptions{})
	if err == nil || !strings.Contains(err.Error(), "delete the directory and re-ingest") {
		t.Fatalf("open over an old-format directory: err = %v", err)
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != string(body) {
		t.Fatalf("old segment changed by the refused open (%v)", err)
	}
}

// allocBytes reports the bytes fn allocated on the heap.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDiskStoreForgedLengthTailAllocBounded: a 13-byte garbage tail whose
// header fields declare a 400 MiB frame (in both the old segment header
// layout and the framelog one) is a torn tail, repaired without allocating
// what it declares. It used to make OpenDiskStore allocate 400 MiB.
func TestDiskStoreForgedLengthTailAllocBounded(t *testing.T) {
	dir, seg := closedStore(t, 10)
	tail := make([]byte, 13)
	binary.LittleEndian.PutUint32(tail[0:], 400<<20)
	tail[4] = framePut
	binary.LittleEndian.PutUint32(tail[5:], 200<<20)
	binary.LittleEndian.PutUint32(tail[9:], 200<<20)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var s *Store
	n := allocBytes(func() { s, err = OpenDiskStore(dir, DiskOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n >= 1<<20 {
		t.Errorf("OpenDiskStore allocated %d bytes over a 13-byte forged tail, want < 1 MiB", n)
	}
	if rec := s.DiskRecovery(); !rec.TornTail || rec.TruncatedBytes != 13 || s.Len() != 10 {
		t.Errorf("recovery = %+v with %d pages, want the 13-byte tail cut and 10 pages", rec, s.Len())
	}
}

// TestDiskStoreScanBounded: Scan sees every page in sorted order across
// many segments.
func TestDiskStoreScanBounded(t *testing.T) {
	s := openDisk(t, t.TempDir(), DiskOptions{SegmentBytes: 8 << 10})
	defer s.Close()
	const n = 120
	for i := 0; i < n; i++ {
		s.Put(testPage(i))
	}
	var got []string
	s.Scan(func(p *Page) bool {
		got = append(got, p.URL)
		return true
	})
	if len(got) != n {
		t.Fatalf("Scan visited %d pages, want %d", len(got), n)
	}
	if !sortedStrings(got) {
		t.Error("Scan order not sorted")
	}
}

// getParsesEveryTime reads one stored page n times and a missing one once:
// a store keeps bytes, never a parse, so every successful Get is a parse
// into a page of its own, and Gets exceed Parses by the failed read alone.
func getParsesEveryTime(t *testing.T, s *Store) {
	t.Helper()
	p := testPage(1)
	s.Put(p)
	const n = 5
	seen := make(map[*Page]bool)
	for i := 0; i < n; i++ {
		got, err := s.Get(p.URL)
		if err != nil || got.HTML != p.HTML || !reflect.DeepEqual(got.Outlinks, p.Outlinks) {
			t.Fatalf("Get #%d = %v, %v", i, got, err)
		}
		if got == p || seen[got] || got.Doc == p.Doc {
			t.Fatalf("Get #%d returned a page (or DOM) an earlier call or Put held", i)
		}
		seen[got] = true
	}
	if _, err := s.Get("nowhere.example/"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of a missing page: %v", err)
	}
	if st := s.Stats(); st.Gets != n+1 || st.Parses != n {
		t.Errorf("stats after %d Gets and one failed read = %+v, want %d gets, %d parses", n, st, n+1, n)
	}
}

// TestDiskStoreGetParsesEveryTime: a disk store keeps no parsed page, so N
// Gets of one URL are N parses.
func TestDiskStoreGetParsesEveryTime(t *testing.T) {
	s := openDisk(t, t.TempDir(), DiskOptions{})
	defer s.Close()
	getParsesEveryTime(t, s)
}

// TestMemoryStoreGetParsesEveryTime: neither does a memory store — it holds
// the bytes Put was given, and the parse Put's caller held is not kept.
func TestMemoryStoreGetParsesEveryTime(t *testing.T) {
	getParsesEveryTime(t, NewStore())
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// TestPutRawMatchesPut: a page stored from its bytes alone reads back as the
// page Put would have stored, and storing it does not parse — on both
// backends.
func TestPutRawMatchesPut(t *testing.T) {
	const u = "raw.example/page"
	v1 := `<html><body><h1>One</h1><a href="/next">next</a></body></html>`
	v2 := `<html><body><h1>Two</h1></body></html>`
	disk, err := OpenDiskStore(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for name, s := range map[string]*Store{"memory": NewStore(), "disk": disk} {
		if !s.PutRaw(u, v1) || s.PutRaw(u, v1) {
			t.Errorf("%s: PutRaw must report a new page as changed and the same bytes as unchanged", name)
		}
		if h, ok := s.Hash(u); !ok || h != HashContent(v1) {
			t.Errorf("%s: stored hash %x, %v", name, h, ok)
		}
		got, err := s.Get(u)
		if want := NewPage(u, v1); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Get after PutRaw = %+v, %v; want %+v", name, got, err, want)
		}
		// New bytes must be served after a Get of the old ones.
		if !s.PutRaw(u, v2) {
			t.Errorf("%s: PutRaw of new bytes reported unchanged", name)
		}
		if got, err := s.Get(u); err != nil || got.HTML != v2 || got.Hash != HashContent(v2) {
			t.Errorf("%s: Get after second PutRaw = %+v, %v", name, got, err)
		}
		if hp := s.HostPages("raw.example"); !reflect.DeepEqual(hp, []string{u}) {
			t.Errorf("%s: host pages %v", name, hp)
		}
		before := s.Stats().Parses
		s.PutRaw("raw.example/unparsed", v1)
		if after := s.Stats().Parses; after != before {
			t.Errorf("%s: PutRaw parsed (%d parses, want %d)", name, after, before)
		}
	}
}
