package lrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"conceptweb/internal/framelog"
)

// readLog returns the raw bytes of dir's log.
func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// logSize stats dir's log.
func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestTornTailRepairHeadline demonstrates the headline bug scenario: a crash
// mid-append leaves a torn frame at the log tail; the store is reopened and
// written to again; a second reopen must see those new writes. Before the
// fix, Open left the torn bytes in place and appended after them, so the
// second replay stopped at the old tear and silently dropped every
// subsequent acknowledged write.
func TestTornTailRepairHeadline(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("r1", "Gochi", "Cupertino")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("r2", "Birk's", "Santa Clara")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-append: chop bytes off the tail, tearing r2's frame.
	data := readLog(t, dir)
	if err := os.WriteFile(filepath.Join(dir, logName), data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len after tear = %d, want 1", s2.Len())
	}
	rec := s2.Recovery()
	if !rec.TornTail || rec.TruncatedBytes == 0 {
		t.Errorf("recovery = %+v, want torn tail with truncated bytes", rec)
	}
	if got := logSize(t, dir); got != int64(len(data)-7)-rec.TruncatedBytes {
		t.Errorf("log size %d after repair, want %d", got, int64(len(data)-7)-rec.TruncatedBytes)
	}
	// The acknowledged write that must survive the next crash-free reopen.
	if err := s2.Put(testRecord("r3", "Pizza", "San Jose")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 2 {
		t.Fatalf("Len after second reopen = %d, want 2 (r3 lost: the torn tail was not repaired)", s3.Len())
	}
	if _, err := s3.Get("r1"); err != nil {
		t.Error("r1 lost")
	}
	if _, err := s3.Get("r3"); err != nil {
		t.Error("r3 lost — acknowledged write discarded after torn-tail reopen")
	}
	if s3.Recovery().TornTail {
		t.Error("second reopen reports a torn tail; the first should have repaired it")
	}
}

// crashScript is the deterministic op sequence the crash-at-every-point
// harness replays; it exercises inserts, overwrites, deletes, and multibyte
// values so frames vary in size and content.
type scriptOp struct {
	del  bool
	id   string
	name string
}

var crashScript = []scriptOp{
	{id: "a", name: "Gochi"},
	{id: "b", name: "Birk's"},
	{id: "a", name: "Gochi Japanese Fusion Tapas"},
	{del: true, id: "b"},
	{id: "c", name: "café 饺子馆 🥟"},
	{id: "b", name: "back again"},
	{del: true, id: "a"},
	{id: "d", name: "Ñoño's"},
}

// applyScriptPrefix returns the expected live id->name map after the first k
// script ops.
func applyScriptPrefix(k int) map[string]string {
	m := map[string]string{}
	for _, op := range crashScript[:k] {
		if op.del {
			delete(m, op.id)
		} else {
			m[op.id] = op.name
		}
	}
	return m
}

func assertState(t *testing.T, s *Store, want map[string]string, ctx string) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", ctx, s.Len(), len(want))
	}
	for id, name := range want {
		got, err := s.Get(id)
		if err != nil {
			t.Fatalf("%s: missing %q: %v", ctx, id, err)
		}
		if got.Get("name") != name {
			t.Fatalf("%s: %q name = %q, want %q", ctx, id, got.Get("name"), name)
		}
	}
}

// TestCrashAtEveryPoint is the acceptance harness: it generates a log from a
// scripted op sequence, then for EVERY truncation point of that log it
// simulates a crash (copy the prefix into a fresh dir), reopens, and asserts
// (1) the recovered state is exactly the state after the last whole frame —
// a valid prefix of the op history, never a mix — and (2) a write made after
// recovery survives another reopen, i.e. no acknowledged write is ever lost
// to a torn tail, for every possible tear.
func TestCrashAtEveryPoint(t *testing.T) {
	gen := t.TempDir()
	s, err := Open(gen)
	if err != nil {
		t.Fatal(err)
	}
	// boundaries[k] = log size after the first k ops are synced.
	boundaries := []int64{0}
	for _, op := range crashScript {
		if op.del {
			err = s.Delete(op.id)
		} else {
			err = s.Put(testRecord(op.id, op.name, "C"))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, logSize(t, gen))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data := readLog(t, gen)
	if int64(len(data)) != boundaries[len(boundaries)-1] {
		t.Fatalf("log size %d, last boundary %d", len(data), boundaries[len(boundaries)-1])
	}

	for cut := 0; cut <= len(data); cut++ {
		// Completed ops at this cut: the last boundary at or before it.
		k := 0
		for i, b := range boundaries {
			if b <= int64(cut) {
				k = i
			}
		}
		want := applyScriptPrefix(k)
		torn := int64(cut) != boundaries[k]

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		ctx := fmt.Sprintf("cut %d (k=%d)", cut, k)
		assertState(t, s2, want, ctx)
		if got := s2.Recovery().TornTail; got != torn {
			t.Fatalf("%s: TornTail = %v, want %v", ctx, got, torn)
		}

		// The headline regression: a post-recovery acknowledged write must
		// survive another reopen at every truncation point.
		if err := s2.Put(testRecord("after-crash", "survivor", "C")); err != nil {
			t.Fatalf("%s: put after recovery: %v", ctx, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("%s: close: %v", ctx, err)
		}
		s3, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: reopen: %v", ctx, err)
		}
		want["after-crash"] = "survivor"
		assertState(t, s3, want, ctx+" after reopen")
		s3.Close()
	}
}

// TestMidLogCorruptionRefusesOpen: damage before valid frames is not a torn
// tail — truncating there would discard acknowledged writes, so Open must
// fail loudly with ErrCorrupt instead.
func TestMidLogCorruptionRefusesOpen(t *testing.T) {
	for _, frame := range []int{0, 1} { // corrupt the 1st and the 2nd of 3 frames
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sizes := []int64{0}
		for i := 0; i < 3; i++ {
			if err := s.Put(testRecord(fmt.Sprintf("r%d", i), "N", "C")); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, logSize(t, dir))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		data := readLog(t, dir)
		// Flip one payload byte inside the chosen frame.
		data[sizes[frame]+framelog.HeaderSize+2] ^= 0xFF
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("frame %d corrupted: Open err = %v, want ErrCorrupt", frame, err)
		}
	}
}

// TestLastFrameCRCFlipTreatedAsTornTail: damage confined to the final frame
// is indistinguishable from a crash mid-append, so it is dropped under the
// WAL contract (the op was never guaranteed unless a later Sync covered it
// and more frames followed — in which case the previous test applies).
func TestLastFrameCRCFlipTreatedAsTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for i := 0; i < 3; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r%d", i), "N", "C")); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			last = logSize(t, dir)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data := readLog(t, dir)
	data[last+framelog.HeaderSize+2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("corrupt final frame should open as torn tail: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Errorf("Len = %d, want 2", s2.Len())
	}
	if rec := s2.Recovery(); !rec.TornTail {
		t.Errorf("recovery = %+v, want torn tail", rec)
	}
}

// TestSeqNoRegressionAfterCompactReopen: the snapshot holds only live
// records, so when the newest mutation is a Delete the tombstone's version
// used to vanish with it and the reopened store reused version numbers.
// Compact now persists the clock in an opSeq frame.
func TestSeqNoRegressionAfterCompactReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("r1", "A", "C")); err != nil { // v1
		t.Fatal(err)
	}
	if err := s.Put(testRecord("r2", "B", "C")); err != nil { // v2
		t.Fatal(err)
	}
	if err := s.Delete("r2"); err != nil { // tombstone v3
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if next := s2.NextSeq(); next <= 3 {
		t.Fatalf("seq after compact+reopen = %d, want > 3 (clock regressed; versions will be reused)", next)
	}
	if err := s2.Put(testRecord("r3", "D", "C")); err != nil {
		t.Fatal(err)
	}
	r3, _ := s2.Get("r3")
	if r3.Version <= 3 {
		t.Errorf("r3.Version = %d, duplicates a pre-compaction version", r3.Version)
	}
}

// TestSnapshotCorruptionRefusesOpen: snapshots are written atomically
// (tmp + fsync + rename), so a damaged snapshot is never a crash artifact
// and must fail Open rather than silently load a partial state.
func TestSnapshotCorruptionRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r%d", i), "N", "C")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapName)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open with damaged snapshot err = %v, want ErrCorrupt", err)
	}
}

// TestRecoveryStatsClean: a healthy reopen reports frame counts and no
// repair.
func TestRecoveryStatsClean(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r%d", i), "N", "C")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil { // 4 records -> snapshot
		t.Fatal(err)
	}
	if err := s.Put(testRecord("r5", "N", "C")); err != nil { // 1 log frame
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotRecords != 4 || rec.LogFrames != 1 || rec.TornTail || rec.TruncatedBytes != 0 {
		t.Errorf("recovery = %+v, want 4 snapshot records, 1 log frame, no repair", rec)
	}
}

// TestOpenForgedFrameLengthAllocBounded: an 8-byte garbage tail declaring a
// 250 MiB frame is a torn tail, cut without allocating what it declares. It
// used to make Open allocate 250 MiB.
func TestOpenForgedFrameLengthAllocBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r%d", i), "N", "C")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[0:], 250<<20)
	binary.LittleEndian.PutUint32(tail[4:], 0xDEADBEEF)
	if err := os.WriteFile(filepath.Join(dir, logName), append(readLog(t, dir), tail[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	var s2 *Store
	n := allocBytes(func() { s2, err = Open(dir) })
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n >= 1<<20 {
		t.Errorf("Open allocated %d bytes over an 8-byte forged tail, want < 1 MiB", n)
	}
	if rec := s2.Recovery(); !rec.TornTail || rec.TruncatedBytes != 8 || s2.Len() != 3 {
		t.Errorf("recovery = %+v with %d records, want the 8-byte tail cut and 3 records", rec, s2.Len())
	}
}
