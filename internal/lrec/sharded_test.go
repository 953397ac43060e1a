package lrec

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"conceptweb/internal/obs"
	"conceptweb/internal/shard"
)

// TestShardRoutingPlacement: every record lands on exactly the shard
// hash(id) % N names, and the facade finds it there again.
func TestShardRoutingPlacement(t *testing.T) {
	const n = 4
	s := NewMemStore(WithShards(n))
	defer s.Close()
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("rec-%d", i)
		if err := s.Put(testRecord(id, "N"+id, "C")); err != nil {
			t.Fatal(err)
		}
		k := shard.Of(id, n)
		if _, err := s.shards[k].view(id); err != nil {
			t.Fatalf("%s missing from shard %d (its hash home): %v", id, k, err)
		}
		for j := 0; j < n; j++ {
			if j == k {
				continue
			}
			if _, err := s.shards[j].view(id); !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s present on shard %d, belongs on %d", id, j, k)
			}
		}
		if _, err := s.Get(id); err != nil {
			t.Fatalf("facade lost %s: %v", id, err)
		}
	}
	total := 0
	for _, sh := range s.shards {
		total += sh.length()
	}
	if total != 64 || s.Len() != 64 {
		t.Fatalf("shard lengths sum to %d, Len() = %d, want 64", total, s.Len())
	}
}

// TestManifestPinsShardCount: a fresh N>1 directory writes a manifest;
// reopening without a request gets N back, and a conflicting request errors
// instead of silently scrambling the routing.
func TestManifestPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testRecord("a", "A", "C")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatalf("fresh 4-shard dir has no manifest: %v", err)
	}
	if want := manifestHeader + "\nshards 4\n"; string(data) != want {
		t.Errorf("manifest = %q, want %q", data, want)
	}

	// Unspecified request resolves to the pinned count.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.NumShards(); got != 4 {
		t.Errorf("reopened NumShards = %d, want 4", got)
	}
	if _, err := s2.Get("a"); err != nil {
		t.Errorf("record lost across pinned reopen: %v", err)
	}
	// Matching explicit request is fine.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, WithShards(4))
	if err != nil {
		t.Fatalf("matching shard request rejected: %v", err)
	}
	s3.Close()

	// Conflicting explicit request must refuse to open.
	if _, err := Open(dir, WithShards(8)); err == nil || !strings.Contains(err.Error(), "resharding requires a rebuild") {
		t.Errorf("conflicting shard count opened anyway: %v", err)
	}
}

// TestLegacyLayoutOpensAsSingleShard: a pre-sharding directory (bare
// lrec.log, no manifest) opens at one shard with its data intact, and a
// request to reshard it in place errors.
func TestLegacyLayoutOpensAsSingleShard(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir) // single shard -> legacy file names, no manifest
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
	if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
		t.Fatalf("single-shard store wrote a manifest (stat err = %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, logName)); err != nil {
		t.Fatalf("single-shard store did not use the legacy log name: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.NumShards(); got != 1 {
		t.Errorf("legacy dir NumShards = %d, want 1", got)
	}
	if s2.Len() != 8 {
		t.Errorf("legacy dir Len = %d, want 8", s2.Len())
	}
	s2.Close()

	if _, err := Open(dir, WithShards(4)); err == nil || !strings.Contains(err.Error(), "resharding requires a rebuild") {
		t.Errorf("resharding a legacy dir in place must error, got %v", err)
	}
}

// TestSingleShardByteFormatUnchanged: the sharded facade at N=1 must emit a
// WAL byte-identical to the raw frame codec — the backward-compat guarantee
// that pre-sharding binaries and directories interoperate with this build.
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
		t.Fatalf("single-shard WAL diverges from the raw frame stream:\n got %d bytes\nwant %d bytes", len(got), want.Len())
	}
}

// TestShardedStoreMatchesSingle: the facade's read API returns identical
// results at 1 and 4 shards — same scan order, same ByConcept/ByAttr sets,
// same versions — with writes interleaved identically.
func TestShardedStoreMatchesSingle(t *testing.T) {
	build := func(n int) *Store {
		s := NewMemStore(WithShards(n))
		for i := 0; i < 40; i++ {
			id := fmt.Sprintf("rec-%03d", i)
			r := testRecord(id, "Name "+id, "City"+fmt.Sprint(i%3))
			if err := s.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i += 5 {
			if err := s.Delete(fmt.Sprintf("rec-%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	s1, s4 := build(1), build(4)
	defer s1.Close()
	defer s4.Close()

	snap := func(s *Store) []string {
		var out []string
		s.Scan(func(r *Record) bool {
			out = append(out, fmt.Sprintf("%s|%s|v%d|%s", r.ID, r.Concept, r.Version, r.Get("name")))
			return true
		})
		return out
	}
	if a, b := snap(s1), snap(s4); !reflect.DeepEqual(a, b) {
		t.Fatalf("scan diverges between 1 and 4 shards:\n1: %v\n4: %v", a, b)
	}
	if s1.Len() != s4.Len() {
		t.Errorf("Len diverges: %d vs %d", s1.Len(), s4.Len())
	}
	ids := func(recs []*Record) []string {
		var out []string
		for _, r := range recs {
			out = append(out, r.ID)
		}
		sort.Strings(out)
		return out
	}
	if a, b := ids(s1.ByConcept("restaurant")), ids(s4.ByConcept("restaurant")); !reflect.DeepEqual(a, b) {
		t.Errorf("ByConcept diverges: %v vs %v", a, b)
	}
	if a, b := ids(s1.ByAttr("restaurant", "city", "City1")), ids(s4.ByAttr("restaurant", "city", "City1")); !reflect.DeepEqual(a, b) {
		t.Errorf("ByAttr diverges: %v vs %v", a, b)
	}
	if a, b := s1.Concepts(), s4.Concepts(); !reflect.DeepEqual(a, b) {
		t.Errorf("Concepts diverges: %v vs %v", a, b)
	}
	if a, b := s1.CountByConcept("restaurant"), s4.CountByConcept("restaurant"); a != b {
		t.Errorf("CountByConcept diverges: %d vs %d", a, b)
	}
}

// TestShardedMetricsAggregate: with N shards the lrec counters must reflect
// logical operations, not per-shard mechanics — in particular one Compact of
// the whole store is ONE compaction even though every shard rewrites its own
// snapshot, and the per-shard WAL gauges report each partition separately.
func TestShardedMetricsAggregate(t *testing.T) {
	m := obs.NewRegistry()
	s, err := Open(t.TempDir(), WithMetrics(m), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 12; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r%d", i), "N", "C")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get("r0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("r1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	want := map[string]int64{
		"lrec.puts": 12, "lrec.gets": 1, "lrec.deletes": 1,
		"lrec.wal.appends": 13, // 12 puts + 1 tombstone, across all shards
		"lrec.compactions": 1,  // one logical compaction, not one per shard
	}
	for name, n := range want {
		if got := snap.Counters[name]; got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	// After compact every shard's WAL gauge is back to zero; before close,
	// put one more record and its home shard's gauge alone must grow.
	for k := 0; k < 4; k++ {
		name := fmt.Sprintf("store.shard.%d.wal_bytes", k)
		if got := snap.Gauges[name]; got != 0 {
			t.Errorf("%s = %d after compact, want 0", name, got)
		}
	}
	id := idForShard(t, "grow-", 2, 4)
	if err := s.Put(testRecord(id, "N", "C")); err != nil {
		t.Fatal(err)
	}
	snap = m.Snapshot()
	for k := 0; k < 4; k++ {
		name := fmt.Sprintf("store.shard.%d.wal_bytes", k)
		got := snap.Gauges[name]
		if k == 2 && got <= 0 {
			t.Errorf("%s = %d after a put routed there, want > 0", name, got)
		}
		if k != 2 && got != 0 {
			t.Errorf("%s = %d, want 0 (no writes routed there)", name, got)
		}
	}
}

// TestPutBatchDeterministicVersions: PutBatch must assign versions by input
// position regardless of worker count or shard count, and report per-record
// errors positionally.
func TestPutBatchDeterministicVersions(t *testing.T) {
	mk := func() []*Record {
		var recs []*Record
		for i := 0; i < 30; i++ {
			recs = append(recs, testRecord(fmt.Sprintf("b-%02d", i), "N", "C"))
		}
		recs[7] = NewRecord("", "restaurant") // invalid: no ID
		return recs
	}
	type result struct {
		versions map[string]uint64
		badIdx   []int
	}
	run := func(shards, workers int) result {
		s := NewMemStore(WithShards(shards))
		defer s.Close()
		recs := mk()
		errs := s.PutBatch(recs, workers)
		res := result{versions: map[string]uint64{}}
		for i, err := range errs {
			if err != nil {
				res.badIdx = append(res.badIdx, i)
				continue
			}
			r, err := s.Get(recs[i].ID)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			res.versions[r.ID] = r.Version
		}
		return res
	}
	base := run(1, 1)
	if !reflect.DeepEqual(base.badIdx, []int{7}) {
		t.Fatalf("bad index = %v, want [7]", base.badIdx)
	}
	for _, cfg := range [][2]int{{1, 8}, {4, 1}, {4, 8}, {16, 8}} {
		got := run(cfg[0], cfg[1])
		if !reflect.DeepEqual(got, base) {
			t.Errorf("shards=%d workers=%d diverges from serial single-shard:\n got %+v\nwant %+v",
				cfg[0], cfg[1], got, base)
		}
	}
}
