package lrec

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"conceptweb/internal/framelog"
)

// faultFS is the fault-injection filesystem: it can fail any operation by
// name (optionally scoped to one file) and kill writes after a total byte
// budget — writing the allowed prefix and then failing, exactly like a disk
// filling up or a process dying mid-write.
type faultFS struct {
	framelog.OS
	mu         sync.Mutex
	writeLimit int64 // total writable bytes across all files; <0 = unlimited
	written    int64
	perFile    map[string]*fileBudget // base name -> per-file write budget
	failOps    map[string]error       // "rename", "sync", "create:lrec.log", ...
}

// fileBudget kills writes to one file after limit bytes, independent of the
// global budget — the shape of one log file's disk going bad.
type fileBudget struct {
	limit   int64
	written int64
}

var errInjected = errors.New("faultfs: injected fault")

func newFaultFS() *faultFS {
	return &faultFS{
		writeLimit: -1,
		perFile:    map[string]*fileBudget{},
		failOps:    map[string]error{},
	}
}

// limitFileWrites caps future writes to the file with the given base name.
func (f *faultFS) limitFileWrites(base string, n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.perFile[base] = &fileBudget{limit: n}
}

func (f *faultFS) failOn(ops ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, op := range ops {
		f.failOps[op] = fmt.Errorf("%w: %s", errInjected, op)
	}
}

func (f *faultFS) clearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failOps = map[string]error{}
}

// check returns the injected error for op (optionally scoped to base name).
func (f *faultFS) check(op, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err, ok := f.failOps[op]; ok {
		return err
	}
	if name != "" {
		if err, ok := f.failOps[op+":"+filepath.Base(name)]; ok {
			return err
		}
	}
	return nil
}

func (f *faultFS) Create(name string) (framelog.File, error) {
	if err := f.check("create", name); err != nil {
		return nil, err
	}
	sf, err := f.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: sf, fs: f, name: filepath.Base(name)}, nil
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (framelog.File, error) {
	if err := f.check("openfile", name); err != nil {
		return nil, err
	}
	sf, err := f.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: sf, fs: f, name: filepath.Base(name)}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.check("rename", newpath); err != nil {
		return err
	}
	return f.OS.Rename(oldpath, newpath)
}

func (f *faultFS) Truncate(name string, size int64) error {
	if err := f.check("truncate", name); err != nil {
		return err
	}
	return f.OS.Truncate(name, size)
}

func (f *faultFS) SyncDir(dir string) error {
	if err := f.check("syncdir", dir); err != nil {
		return err
	}
	return f.OS.SyncDir(dir)
}

// faultFile enforces the byte budgets on writes and injects sync faults.
type faultFile struct {
	framelog.File
	fs   *faultFS
	name string // base name, for per-file budgets
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	allowed := len(p)
	if w.fs.writeLimit >= 0 {
		if rem := w.fs.writeLimit - w.fs.written; rem < int64(len(p)) {
			allowed = int(max(rem, 0))
		}
	}
	if fb := w.fs.perFile[w.name]; fb != nil {
		if rem := fb.limit - fb.written; rem < int64(allowed) {
			allowed = int(max(rem, 0))
		}
		fb.written += int64(allowed)
	}
	w.fs.written += int64(allowed)
	w.fs.mu.Unlock()
	n, err := w.File.Write(p[:allowed])
	if err != nil {
		return n, err
	}
	if allowed < len(p) {
		return n, fmt.Errorf("%w: write budget exhausted", errInjected)
	}
	return n, nil
}

func (w *faultFile) Sync() error {
	if err := w.fs.check("sync", ""); err != nil {
		return err
	}
	return w.File.Sync()
}

func max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// bigRecord is large enough to overflow the log's bufio buffer, forcing the
// frame write through to the (faulted) file during Put itself.
func bigRecord(id string) *Record {
	r := NewRecord(id, "restaurant")
	v := make([]byte, 8192)
	for i := range v {
		v[i] = 'x'
	}
	return r.Set("name", string(v))
}

// TestPutWriteErrorLatchesDegraded: a failed log write must leave memory
// untouched (the op is logged before it is applied) and flip the store
// read-only, instead of acknowledging an op the log never saw.
func TestPutWriteErrorLatchesDegraded(t *testing.T) {
	ffs := newFaultFS()
	dir := t.TempDir()
	s, err := Open(dir, withFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testRecord("ok", "Gochi", "Cupertino")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	ffs.mu.Lock()
	ffs.writeLimit = ffs.written + 3 // next frame tears after 3 bytes
	ffs.mu.Unlock()

	if err := s.Put(bigRecord("doomed")); err == nil {
		t.Fatal("Put with failing log write must error")
	}
	// Memory must not have diverged from the log.
	if _, err := s.Get("doomed"); !errors.Is(err, ErrNotFound) {
		t.Error("failed Put mutated memory; store has diverged from its log")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	// The store is latched read-only...
	if err := s.Degraded(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Degraded() = %v, want ErrDegraded", err)
	}
	if err := s.Put(testRecord("later", "N", "C")); !errors.Is(err, ErrDegraded) {
		t.Errorf("Put on degraded store = %v, want ErrDegraded", err)
	}
	if err := s.Delete("ok"); !errors.Is(err, ErrDegraded) {
		t.Errorf("Delete on degraded store = %v, want ErrDegraded", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Sync on degraded store = %v, want ErrDegraded", err)
	}
	if err := s.Compact(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Compact on degraded store = %v, want ErrDegraded", err)
	}
	// ...but reads keep working.
	if r, err := s.Get("ok"); err != nil || r.Get("name") != "Gochi" {
		t.Errorf("read on degraded store: %v %v", r, err)
	}
	if err := s.Close(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Close on degraded store = %v, want ErrDegraded", err)
	}

	// Recovery: reopening the directory (real FS) yields the pre-fault
	// state — the torn half-frame from the failed write is repaired away.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
	if _, err := s2.Get("ok"); err != nil {
		t.Error("synced record lost")
	}
	if err := s2.Put(testRecord("fresh", "N", "C")); err != nil {
		t.Errorf("reopened store must accept writes: %v", err)
	}
}

// TestSyncErrorLatchesDegraded: after a failed fsync the kernel may have
// dropped the dirty pages, so the store must refuse to pretend later syncs
// can make the data durable.
func TestSyncErrorLatchesDegraded(t *testing.T) {
	ffs := newFaultFS()
	s, err := Open(t.TempDir(), withFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(testRecord("r1", "N", "C")); err != nil {
		t.Fatal(err)
	}
	ffs.failOn("sync")
	if err := s.Sync(); err == nil {
		t.Fatal("Sync must surface the fsync error")
	}
	if err := s.Degraded(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Degraded() = %v, want ErrDegraded", err)
	}
	ffs.clearFaults()
	// Even with the fault gone the latch holds: durability of the earlier
	// ack is unknown, so the store stays read-only until reopened.
	if err := s.Sync(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Sync after latch = %v, want ErrDegraded", err)
	}
}

// compactStore opens a faulted store with a few records and a prior
// snapshot, ready for Compact error-path tests.
func compactStore(t *testing.T, ffs *faultFS) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, withFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r%d", i), fmt.Sprintf("N%d", i), "C")); err != nil {
			t.Fatal(err)
		}
	}
	return s, dir
}

// assertCompactFailureRecoverable drives the store after a failed Compact:
// it must still accept writes, close cleanly, and reopen with nothing lost —
// and no snapshot temp file may be left behind.
func assertCompactFailureRecoverable(t *testing.T, ffs *faultFS, s *Store, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, snapName+".tmp")); !os.IsNotExist(err) {
		t.Errorf("compact failure leaked %s.tmp (stat err = %v)", snapName, err)
	}
	ffs.clearFaults()
	if err := s.Put(testRecord("after", "post-failure", "C")); err != nil {
		t.Fatalf("store unusable after failed compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close after failed compact: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after failed compact: %v", err)
	}
	defer s2.Close()
	want := map[string]string{"r0": "N0", "r1": "N1", "r2": "N2", "after": "post-failure"}
	assertState(t, s2, want, "after failed compact")
}

func TestCompactTmpCreateFailure(t *testing.T) {
	ffs := newFaultFS()
	s, dir := compactStore(t, ffs)
	ffs.failOn("create:" + snapName + ".tmp")
	if err := s.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact = %v, want injected error", err)
	}
	assertCompactFailureRecoverable(t, ffs, s, dir)
}

func TestCompactRenameFailureRemovesTmp(t *testing.T) {
	ffs := newFaultFS()
	s, dir := compactStore(t, ffs)
	ffs.failOn("rename")
	if err := s.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact = %v, want injected error", err)
	}
	assertCompactFailureRecoverable(t, ffs, s, dir)
}

// TestCompactNewLogCreateFailureKeepsOldLog is the satellite bug: Compact
// used to close the old log before creating the new one, so a failed create
// left logFile/logW pointing at a closed file and every later Put broke the
// store. The old log must stay open until the new one exists.
func TestCompactNewLogCreateFailureKeepsOldLog(t *testing.T) {
	ffs := newFaultFS()
	s, dir := compactStore(t, ffs)
	ffs.failOn("create:" + logName)
	if err := s.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact = %v, want injected error", err)
	}
	// The snapshot landed but the log was not replaced; both coexisting is
	// fine because replaying snapshot + old log is idempotent.
	assertCompactFailureRecoverable(t, ffs, s, dir)
}

// TestCompactSyncDirFailureKeepsLog: if the directory fsync after the
// snapshot rename fails, the rename may not be durable — truncating the log
// at that point could lose everything on crash, so Compact must stop first.
func TestCompactSyncDirFailureKeepsLog(t *testing.T) {
	ffs := newFaultFS()
	s, dir := compactStore(t, ffs)
	before := logSize(t, dir)
	ffs.failOn("syncdir")
	if err := s.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact = %v, want injected error", err)
	}
	if got := logSize(t, dir); got < before {
		t.Errorf("log shrank from %d to %d despite un-durable snapshot rename", before, got)
	}
	assertCompactFailureRecoverable(t, ffs, s, dir)
}

// TestWriteKilledAtEveryOffset sweeps the write-kill budget from zero until
// a full scripted run succeeds: every possible point a write can die at.
// After each kill the directory is reopened with the real filesystem and
// must contain exactly the synced prefix of the script — acknowledged ops
// all present, and at most the single in-flight op beyond them.
func TestWriteKilledAtEveryOffset(t *testing.T) {
	for limit := int64(0); ; limit++ {
		ffs := newFaultFS()
		ffs.writeLimit = limit
		dir := t.TempDir()
		s, err := Open(dir, withFS(ffs))
		if err != nil {
			t.Fatalf("limit %d: open: %v", limit, err)
		}
		acked := 0
		for _, op := range crashScript {
			if op.del {
				err = s.Delete(op.id)
			} else {
				err = s.Put(testRecord(op.id, op.name, "C"))
			}
			if err != nil {
				break
			}
			if err = s.Sync(); err != nil {
				break
			}
			acked++
		}
		killed := err != nil
		s.Close()

		s2, rerr := Open(dir)
		if rerr != nil {
			t.Fatalf("limit %d: reopen: %v", limit, rerr)
		}
		// Everything acked by Sync must be there; the one unsynced
		// in-flight op may or may not have reached the disk.
		wantAcked := applyScriptPrefix(acked)
		wantNext := wantAcked
		if acked < len(crashScript) {
			wantNext = applyScriptPrefix(acked + 1)
		}
		if !stateEquals(s2, wantAcked) && !stateEquals(s2, wantNext) {
			t.Fatalf("limit %d: recovered state matches neither %d nor %d acked ops (len=%d)",
				limit, acked, acked+1, s2.Len())
		}
		s2.Close()
		if !killed {
			return // budget large enough for the whole script: sweep done
		}
	}
}

func stateEquals(s *Store, want map[string]string) bool {
	if s.Len() != len(want) {
		return false
	}
	for id, name := range want {
		r, err := s.Get(id)
		if err != nil || r.Get("name") != name {
			return false
		}
	}
	return true
}
