package core

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// openDirPages opens the page store of a system directory (dir/pages).
func openDirPages(t testing.TB, dir string, opts webgraph.DiskOptions) *webgraph.Store {
	t.Helper()
	ps, err := webgraph.OpenDiskStore(filepath.Join(dir, "pages"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// saveDir persists built into dir the way `wocbuild -out dir` does — its
// pages already live in dir/pages; its records are saved into dir/records at
// the given shard count — and closes it.
func saveDir(t testing.TB, built *WebOfConcepts, dir string, shards int) {
	t.Helper()
	if err := built.Pages.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := built.SaveRecords(filepath.Join(dir, "records"), shards); err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
}

// openDir reopens a directory saveDir wrote through b, whose StoreDir and
// PageStore it sets. The system is closed when the test ends.
func openDir(t testing.TB, dir string, b *Builder) *WebOfConcepts {
	t.Helper()
	b.Cfg.StoreDir, b.Cfg.PageStore = filepath.Join(dir, "records"), openDirPages(t, dir, webgraph.DiskOptions{})
	opened, _, err := b.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { opened.Close() })
	return opened
}

var versionField = regexp.MustCompile(`^([^|]*\|[^|]*)\|v\d+`)

// fingerprintSansVersions is fingerprint without record versions, which a
// store written by SaveRecords numbers anew; provenance stamps, support and
// value order stay in.
func fingerprintSansVersions(woc *WebOfConcepts) string {
	h := sha256.New()
	for _, l := range snapshotRecords(woc) {
		fmt.Fprintln(h, versionField.ReplaceAllString(l, "$1"))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// indexState is what a comparison of two indexes looks at: size, posting
// count, the document frequency of every query term and the top-10 ranking
// digest over the queries.
func indexState(ix *index.Sharded, queries []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d docs / %d postings / ranking %s / df", ix.Len(), ix.Postings(), searchDigest(ix, queries))
	for _, q := range queries {
		for _, term := range strings.Fields(q) {
			fmt.Fprintf(&b, " %d", ix.DF(term))
		}
	}
	return b.String()
}

// systemState is what a reopened system must share with the system that
// wrote it, in the order of stateParts.
func systemState(woc *WebOfConcepts, queries []string) []string {
	return []string{
		fingerprintSansVersions(woc), assocDigest(woc.Assoc), assocDigest(woc.RevAssoc),
		indexState(woc.DocIndex, queries), indexState(woc.RecIndex, queries),
	}
}

var stateParts = []string{"records", "Assoc", "RevAssoc", "DocIndex", "RecIndex"}

// TestOpenMatchesWriter: a 2k-page heavy-tail system written out as
// `wocbuild -out` writes it — reconciled, then saved — and reopened is the
// system that wrote it — the same records (provenance stamps included;
// versions are renumbered by the copy), the same Assoc/RevAssoc, both
// indexes the same size with the same document frequencies and
// bit-identical top-10 rankings over the pinned queries — at workers 1 and
// 8 × shards 1 and 4.
func TestOpenMatchesWriter(t *testing.T) {
	w := webgen.NewStreamWorld(webgen.HeavyTailConfig(2000))
	config := func(workers, shards int) Config {
		reg := lrec.NewRegistry()
		webgen.RegisterScaleConcepts(reg)
		cfg := ScaleConfig(reg, w.Cities(), webgen.Cuisines())
		cfg.Workers, cfg.Shards = workers, shards
		return cfg
	}
	for _, shards := range []int{1, 4} {
		dir := t.TempDir()
		cfg := config(0, shards)
		cfg.PageStore = openDirPages(t, dir, webgraph.DiskOptions{})
		writer, _, err := (&Builder{Fetcher: w, Cfg: cfg}).BuildStream(w)
		if err != nil {
			t.Fatal(err)
		}
		writer.Reconcile("restaurant", PreferSupport)
		queries := pinnedQueries(writer, w.Cities())
		var stamp uint64 // the writer's latest provenance stamp
		writer.Records.Scan(func(r *lrec.Record) bool {
			for _, k := range r.Keys() {
				for _, v := range r.All(k) {
					stamp = max(stamp, v.Prov.Seq)
				}
			}
			return true
		})
		want := systemState(writer, queries)
		saveDir(t, writer, dir, shards)
		for _, workers := range []int{1, 8} {
			woc := openDir(t, dir, &Builder{Fetcher: w, Cfg: config(workers, 0)})
			for i, got := range systemState(woc, queries) {
				if got != want[i] {
					t.Errorf("workers %d shards %d: reopened %s differ from the writer's", workers, shards, stateParts[i])
				}
			}
			if n := woc.Records.NumShards(); n != max(shards, 1) {
				t.Errorf("workers %d shards %d: reopened store has %d shards", workers, shards, n)
			}
			if clock := woc.Records.AdvanceSeq(0); clock < stamp {
				t.Errorf("workers %d shards %d: reopened clock %d is behind the stamp %d a record carries", workers, shards, clock, stamp)
			}
			if woc.memo != nil || woc.links != nil {
				t.Errorf("workers %d shards %d: a reopened system must start memo-less", workers, shards)
			}
			woc.Close()
		}
	}
}

// TestOpenMatchesReconciledWriter: on the default world Reconcile does trim
// records — one of them down to a different homepage — and a reopened
// system still matches its writer: Reconcile drops the edges only trimmed
// values justified and re-indexes what it trims, so the writer holds what
// the records imply, which is what Open derives.
func TestOpenMatchesReconciledWriter(t *testing.T) {
	w := webgen.Generate(webgen.DefaultConfig())
	config := func() Config {
		reg := lrec.NewRegistry()
		webgen.RegisterConcepts(reg)
		return StandardConfig(reg, w.Cities(), webgen.Cuisines())
	}
	dir := t.TempDir()
	cfg := config()
	cfg.PageStore = openDirPages(t, dir, webgraph.DiskOptions{})
	writer, _, err := (&Builder{Fetcher: w, Cfg: cfg}).Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	if n := writer.Reconcile("restaurant", PreferSupport); n == 0 {
		t.Fatal("reconcile trimmed nothing: the test needs a world where it does")
	}
	// Re-indexed records leave their old postings tombstoned until a
	// compaction; the reopened index never had them.
	writer.RecIndex.CompactTombstones()
	queries := pinnedQueries(writer, w.Cities())
	want := systemState(writer, queries)
	saveDir(t, writer, dir, 0)
	for i, got := range systemState(openDir(t, dir, &Builder{Fetcher: w, Cfg: config()}), queries) {
		if got != want[i] {
			t.Errorf("reopened %s differ from the reconciled writer's", stateParts[i])
		}
	}
}
