package lrec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOpenRefusesShardedDirectory: a directory the hash-sharded store of
// earlier builds wrote (lrec.manifest beside lrec-NN.wal files) is refused
// with an error that names it and says how to rebuild it, and Open creates
// no empty store beside the partitions.
func TestOpenRefusesShardedDirectory(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		"lrec.manifest": "lrec manifest v1\nshards 4\n",
		"lrec-00.wal":   "",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err == nil {
		s.Close()
		t.Fatal("a sharded directory opened")
	}
	if msg := err.Error(); !strings.Contains(msg, dir) || !strings.Contains(msg, "wocbuild -out") {
		t.Errorf("error %q does not name the directory and the rebuild", msg)
	}
	for _, name := range []string{logName, snapName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("the refused Open left %s behind (stat err = %v)", name, err)
		}
	}
}

// TestLegacyLayoutOpensAsSingleShard: the store writes the single-WAL layout
// (lrec.log, no manifest) and a directory holding it reopens with its data.
func TestLegacyLayoutOpensAsSingleShard(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r%d", i), "N", "C")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, shardManifestName)); !os.IsNotExist(err) {
		t.Fatalf("the store wrote %s (stat err = %v)", shardManifestName, err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); err != nil {
		t.Fatalf("the store did not write %s: %v", logName, err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 8 {
		t.Errorf("reopened Len = %d, want 8", s2.Len())
	}
}

// TestSingleShardByteFormatUnchanged: the store's WAL is byte-identical to
// the raw frame codec's stream — the format every existing directory and the
// pinned snapshot rely on.
func TestSingleShardByteFormatUnchanged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		testRecord("a", "Gochi", "Cupertino"),
		testRecord("b", "Zeni", "San Jose"),
	}
	var want bytes.Buffer
	for i, r := range recs {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
		cp := r.Clone()
		cp.Version = uint64(i + 1) // what the store assigned
		want.Write(encodeOp(opPut, cp))
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	del := &Record{ID: "a", Concept: "restaurant", Version: 3, Deleted: true}
	want.Write(encodeOp(opDelete, del))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("WAL diverges from the raw frame stream:\n got %d bytes\nwant %d bytes", len(got), want.Len())
	}
}

// TestPutBatchDeterministicVersions: PutBatch assigns versions by input
// position, exactly as a serial Put loop does, and reports per-record errors
// positionally.
func TestPutBatchDeterministicVersions(t *testing.T) {
	mk := func() []*Record {
		var recs []*Record
		for i := 0; i < 30; i++ {
			recs = append(recs, testRecord(fmt.Sprintf("b-%02d", i), "N", "C"))
		}
		recs[7] = NewRecord("", "restaurant") // invalid: no ID
		return recs
	}
	versions := func(s *Store) map[string]uint64 {
		out := map[string]uint64{}
		s.Scan(func(r *Record) bool {
			out[r.ID] = r.Version
			return true
		})
		return out
	}
	batch := NewMemStore()
	var bad []int
	for i, err := range batch.PutBatch(mk()) {
		if err != nil {
			bad = append(bad, i)
		}
	}
	if !reflect.DeepEqual(bad, []int{7}) {
		t.Fatalf("bad index = %v, want [7]", bad)
	}
	serial := NewMemStore()
	for _, r := range mk() {
		serial.Put(r) //nolint:errcheck // the invalid record fails as in the batch
	}
	if got, want := versions(batch), versions(serial); !reflect.DeepEqual(got, want) {
		t.Errorf("PutBatch versions diverge from a serial Put loop:\n got %v\nwant %v", got, want)
	}
}
