package lrec

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"conceptweb/internal/obs"
)

func testRecord(id, name, city string) *Record {
	return NewRecord(id, "restaurant").Set("name", name).Set("city", city)
}

func TestStorePutGet(t *testing.T) {
	s := NewMemStore()
	r := testRecord("r1", "Gochi", "Cupertino")
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("r1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Get("name") != "Gochi" {
		t.Errorf("got = %s", got)
	}
	if got.Version == 0 {
		t.Error("version not assigned")
	}
	// Stored copy is independent of caller's record.
	r.Set("name", "mutated")
	got2, _ := s.Get("r1")
	if got2.Get("name") != "Gochi" {
		t.Error("store shares memory with caller")
	}
	// Returned copy is independent of the store.
	got2.Set("name", "also mutated")
	got3, _ := s.Get("r1")
	if got3.Get("name") != "Gochi" {
		t.Error("Get returns shared memory")
	}
}

func TestStorePutValidation(t *testing.T) {
	s := NewMemStore()
	if err := s.Put(NewRecord("", "c")); !errors.Is(err, ErrNoID) {
		t.Errorf("err = %v", err)
	}
	if err := s.Put(NewRecord("x", "")); !errors.Is(err, ErrNoConcept) {
		t.Errorf("err = %v", err)
	}
	g := NewRegistry()
	g.Register(Concept{Name: "known"})
	s2 := NewMemStore(WithRegistry(g))
	if err := s2.Put(NewRecord("x", "unknown")); !errors.Is(err, ErrUnknownConcept) {
		t.Errorf("err = %v", err)
	}
	if err := s2.Put(NewRecord("x", "known")); err != nil {
		t.Errorf("err = %v", err)
	}
}

func TestStoreGetMissing(t *testing.T) {
	s := NewMemStore()
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewMemStore()
	s.Put(testRecord("r1", "Gochi", "Cupertino"))
	if err := s.Delete("r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("r1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if err := s.Delete("r1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.ByConcept("restaurant"); len(got) != 0 {
		t.Errorf("ByConcept after delete = %v", got)
	}
}

func TestStoreByConcept(t *testing.T) {
	s := NewMemStore()
	s.Put(testRecord("b", "Birk's", "Santa Clara"))
	s.Put(testRecord("a", "Gochi", "Cupertino"))
	s.Put(NewRecord("p", "person").Set("name", "Alice"))
	got := s.ByConcept("restaurant")
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Errorf("ByConcept = %v", got)
	}
	if s.CountByConcept("restaurant") != 2 || s.CountByConcept("person") != 1 {
		t.Error("CountByConcept wrong")
	}
	if got := s.Concepts(); !reflect.DeepEqual(got, []string{"person", "restaurant"}) {
		t.Errorf("Concepts = %v", got)
	}
}

func TestStoreByAttr(t *testing.T) {
	s := NewMemStore()
	s.Put(testRecord("a", "Gochi", "Cupertino"))
	s.Put(testRecord("b", "Pizza My Heart", "Cupertino"))
	s.Put(testRecord("c", "Birk's", "Santa Clara"))
	got := s.ByAttr("restaurant", "city", "CUPERTINO") // normalization applies
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Errorf("ByAttr = %v", got)
	}
	// Replacing a record must update the secondary index.
	s.Put(testRecord("a", "Gochi", "San Jose"))
	if got := s.ByAttr("restaurant", "city", "cupertino"); len(got) != 1 || got[0].ID != "b" {
		t.Errorf("stale index: %v", got)
	}
	if got := s.ByAttr("restaurant", "city", "san jose"); len(got) != 1 {
		t.Errorf("new value missing: %v", got)
	}
}

func TestStoreScan(t *testing.T) {
	s := NewMemStore()
	for i := 0; i < 5; i++ {
		s.Put(testRecord(fmt.Sprintf("r%d", i), "N", "C"))
	}
	var seen []string
	s.Scan(func(r *Record) bool {
		seen = append(seen, r.ID)
		return len(seen) < 3
	})
	if !reflect.DeepEqual(seen, []string{"r0", "r1", "r2"}) {
		t.Errorf("scan = %v", seen)
	}
}

func TestStoreSeqMonotonic(t *testing.T) {
	s := NewMemStore()
	a := s.NextSeq()
	b := s.NextSeq()
	if b != a+1 {
		t.Errorf("seq not monotonic: %d then %d", a, b)
	}
	s.Put(testRecord("r", "N", "C"))
	if c := s.NextSeq(); c <= b {
		t.Errorf("seq went backwards after put: %d", c)
	}
	// A re-Put of the same ID gets a strictly larger Version each time.
	prev, _ := s.Get("r")
	for i := 0; i < 3; i++ {
		s.Put(testRecord("r", fmt.Sprintf("N v%d", i), "C"))
		cur, _ := s.Get("r")
		if cur.Version <= prev.Version {
			t.Errorf("re-put version %d after %d: not increasing", cur.Version, prev.Version)
		}
		prev = cur
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(testRecord("r1", "Gochi", "Cupertino"))
	s.Put(testRecord("r2", "Birk's", "Santa Clara"))
	s.Delete("r2")
	s.Put(testRecord("r3", "Pizza", "San Jose"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
	if _, err := s2.Get("r2"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted record resurrected")
	}
	r1, err := s2.Get("r1")
	if err != nil || r1.Get("name") != "Gochi" {
		t.Errorf("r1 = %v, %v", r1, err)
	}
	// Secondary indexes rebuilt on replay.
	if got := s2.ByAttr("restaurant", "city", "cupertino"); len(got) != 1 {
		t.Errorf("index after replay = %v", got)
	}
	// Seq continues past pre-restart values.
	r3, _ := s2.Get("r3")
	if next := s2.NextSeq(); next <= r3.Version {
		t.Errorf("seq %d did not advance past %d", next, r3.Version)
	}
}

func TestStoreCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(testRecord("r1", "Gochi", "Cupertino"))
	s.Put(testRecord("r2", "Birk's", "Santa Clara"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: chop bytes off the log tail.
	logPath := filepath.Join(dir, "lrec.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail should not fail open: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (second put torn)", s2.Len())
	}
	if _, err := s2.Get("r1"); err != nil {
		t.Error("first record lost")
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Put(testRecord("r1", fmt.Sprintf("v%d", i), "C")) // churn one record
	}
	s.Put(testRecord("r2", "Stable", "C"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Log should now be empty; snapshot holds live state.
	if fi, err := os.Stat(filepath.Join(dir, "lrec.log")); err != nil || fi.Size() != 0 {
		t.Errorf("log not truncated: %v %d", err, fi.Size())
	}
	// Mutations after compaction land in the fresh log.
	s.Put(testRecord("r3", "After", "C"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("Len after compact+reopen = %d", s2.Len())
	}
	r1, _ := s2.Get("r1")
	if r1.Get("name") != "v19" {
		t.Errorf("r1 = %v", r1)
	}
	if _, err := s2.Get("r3"); err != nil {
		t.Error("post-compaction put lost")
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("w%d-r%d", w, i)
				s.Put(testRecord(id, "N", "C"))
				s.Get(id)
				s.ByConcept("restaurant")
				s.CountByConcept("restaurant")
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreIndexConsistencyProperty(t *testing.T) {
	// Random puts/deletes; afterwards every index entry must point at a live
	// record with that value, and every live record must be indexed.
	s := NewMemStore()
	rng := rand.New(rand.NewSource(7))
	ids := []string{"a", "b", "c", "d", "e"}
	cities := []string{"x", "y", "z"}
	for i := 0; i < 500; i++ {
		id := ids[rng.Intn(len(ids))]
		if rng.Float64() < 0.3 {
			s.Delete(id) // may be ErrNotFound; fine
			continue
		}
		s.Put(testRecord(id, "N"+id, cities[rng.Intn(len(cities))]))
	}
	for _, city := range cities {
		for _, r := range s.ByAttr("restaurant", "city", city) {
			if r.Get("city") != city {
				t.Fatalf("index points to record with city %q, want %q", r.Get("city"), city)
			}
		}
	}
	s.Scan(func(r *Record) bool {
		found := false
		for _, m := range s.ByAttr("restaurant", "city", r.Get("city")) {
			if m.ID == r.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("record %s missing from attr index", r.ID)
		}
		return true
	})
}

func TestOpenBadDir(t *testing.T) {
	// A path that exists as a file cannot be a store dir.
	f := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Error("Open on a file should fail")
	}
}

// TestStoreModelBased drives a durable store and an in-memory reference
// model with the same random operation sequence (put/delete/reopen) and
// requires identical observable state after every reopen — the standard
// model-checking harness for a write-ahead-logged store.
func TestStoreModelBased(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))
	model := map[string]string{} // id -> name (the only attr we vary)
	ids := []string{"a", "b", "c", "d", "e", "f"}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstModel := func(step int) {
		t.Helper()
		if s.Len() != len(model) {
			t.Fatalf("step %d: len %d, model %d", step, s.Len(), len(model))
		}
		for id, name := range model {
			got, err := s.Get(id)
			if err != nil {
				t.Fatalf("step %d: missing %s: %v", step, id, err)
			}
			if got.Get("name") != name {
				t.Fatalf("step %d: %s name %q, model %q", step, id, got.Get("name"), name)
			}
		}
	}
	for step := 0; step < 400; step++ {
		id := ids[rng.Intn(len(ids))]
		switch op := rng.Float64(); {
		case op < 0.55: // put
			name := fmt.Sprintf("name-%d", rng.Intn(1000))
			if err := s.Put(testRecord(id, name, "C")); err != nil {
				t.Fatal(err)
			}
			model[id] = name
		case op < 0.8: // delete
			err := s.Delete(id)
			_, inModel := model[id]
			if inModel && err != nil {
				t.Fatalf("step %d: delete %s: %v", step, id, err)
			}
			if !inModel && err == nil {
				t.Fatalf("step %d: delete of absent %s succeeded", step, id)
			}
			delete(model, id)
		case op < 0.9: // crash-free reopen
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			checkAgainstModel(step)
		default: // compact then reopen
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			checkAgainstModel(step)
		}
	}
	checkAgainstModel(400)
	s.Close()
}

// TestStoreMetrics checks the observability wiring: a durable store with a
// metrics registry counts puts, gets, deletes, WAL appends, and compactions,
// and gauges the bytes in its WAL.
func TestStoreMetrics(t *testing.T) {
	m := obs.NewRegistry()
	s, err := Open(t.TempDir(), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Put(testRecord(fmt.Sprintf("r%d", i), "N", "C")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Get("r0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("r2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Rejected operations must not inflate the counters: a put failing
	// validation and a delete of a missing id count nothing.
	if err := s.Put(NewRecord("", "restaurant")); !errors.Is(err, ErrNoID) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Delete("never-existed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	snap := m.Snapshot()
	want := map[string]int64{
		"lrec.puts": 3, "lrec.gets": 1, "lrec.deletes": 1,
		"lrec.wal.appends": 4, // 3 puts + 1 tombstone
		"lrec.compactions": 1,
	}
	for name, n := range want {
		if got := snap.Counters[name]; got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
	// The WAL gauge is back to zero after the compaction and grows with the
	// next put.
	if got := snap.Gauges["lrec.wal_bytes"]; got != 0 {
		t.Errorf("lrec.wal_bytes = %d after compact, want 0", got)
	}
	if err := s.Put(testRecord("r9", "N", "C")); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Gauges["lrec.wal_bytes"]; got <= 0 {
		t.Errorf("lrec.wal_bytes = %d after a put, want > 0", got)
	}

	// An un-instrumented store keeps working with zero metric overhead.
	plain := NewMemStore()
	if err := plain.Put(testRecord("p", "N", "C")); err != nil {
		t.Fatal(err)
	}
}
