package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
)

// buildMatrix runs the standard pipeline at the given worker-pool size,
// optionally backing the store durably in dir.
func buildMatrix(t *testing.T, workers int, dir string) (*WebOfConcepts, *BuildStats) {
	t.Helper()
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	cfg := StandardConfig(reg, w.Cities(), webgen.Cuisines())
	cfg.Workers = workers
	cfg.StoreDir = dir
	b := &Builder{Fetcher: w, Cfg: cfg}
	woc, stats, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatalf("build (workers=%d): %v", workers, err)
	}
	return woc, stats
}

// fingerprint hashes the canonical record stream, so whole stores compare as
// one value and divergence messages stay small.
func fingerprint(woc *WebOfConcepts) string {
	h := sha256.New()
	for _, line := range snapshotRecords(woc) {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestShardWorkerMatrixDeterminism is the determinism bar: the store
// fingerprint, associations, ranked search results and composed epoch must
// be byte-identical at every worker count over the store's one partition —
// the pool is an execution detail, never an output detail. CI runs this
// under -race.
func TestShardWorkerMatrixDeterminism(t *testing.T) {
	queries := []string{
		"mexican cupertino", "pizza menu", "sushi san jose",
		"best thai", "restaurant review", "gochi",
	}

	type run struct {
		workers int
		woc     *WebOfConcepts
		stats   *BuildStats
	}
	var runs []run
	for _, wk := range []int{1, 8} {
		woc, stats := buildMatrix(t, wk, "")
		defer woc.Close()
		runs = append(runs, run{wk, woc, stats})
	}
	base := runs[0]
	baseFP := fingerprint(base.woc)
	baseSearch := map[string][]string{}
	for _, q := range queries {
		baseSearch["doc:"+q] = searchIDs(base.woc.DocIndex, q, 10)
		baseSearch["rec:"+q] = searchIDs(base.woc.RecIndex, q, 10)
	}
	baseEpoch := base.woc.Epoch()

	for _, r := range runs[1:] {
		tag := fmt.Sprintf("workers=%d", r.workers)
		if got := fingerprint(r.woc); got != baseFP {
			t.Errorf("%s: store fingerprint diverges from workers=1", tag)
		}
		if r.stats.RecordsStored != base.stats.RecordsStored ||
			r.stats.Candidates != base.stats.Candidates ||
			r.stats.ClustersMerged != base.stats.ClustersMerged {
			t.Errorf("%s: stats diverge: %+v vs %+v", tag, r.stats, base.stats)
		}
		if !reflect.DeepEqual(r.woc.Assoc, base.woc.Assoc) {
			t.Errorf("%s: Assoc maps diverge", tag)
		}
		for _, q := range queries {
			if got := searchIDs(r.woc.DocIndex, q, 10); !reflect.DeepEqual(got, baseSearch["doc:"+q]) {
				t.Errorf("%s: doc search %q diverges:\n got %v\nwant %v", tag, q, got, baseSearch["doc:"+q])
			}
			if got := searchIDs(r.woc.RecIndex, q, 10); !reflect.DeepEqual(got, baseSearch["rec:"+q]) {
				t.Errorf("%s: rec search %q diverges:\n got %v\nwant %v", tag, q, got, baseSearch["rec:"+q])
			}
		}
		// The composed epoch counts mutations, so it too is invariant.
		if got := r.woc.Epoch(); got != baseEpoch {
			t.Errorf("%s: composed epoch %d diverges from %d", tag, got, baseEpoch)
		}
	}
}

// TestShardWALByteIdentityAcrossWorkers: the store's durable on-disk
// artifacts (WAL and snapshot) must be byte-identical no matter how many
// workers built them — the strongest form of the determinism contract.
func TestShardWALByteIdentityAcrossWorkers(t *testing.T) {
	dirs := map[int]string{}
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		woc, _ := buildMatrix(t, workers, dir)
		if err := woc.Close(); err != nil {
			t.Fatalf("close (workers=%d): %v", workers, err)
		}
		dirs[workers] = dir
	}
	files := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		return names
	}
	f1, f8 := files(dirs[1]), files(dirs[8])
	if !reflect.DeepEqual(f1, f8) {
		t.Fatalf("directory listings diverge: %v vs %v", f1, f8)
	}
	for _, name := range f1 {
		a, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[8], name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs between 1 and 8 workers (%d vs %d bytes)", name, len(a), len(b))
		}
	}
}
