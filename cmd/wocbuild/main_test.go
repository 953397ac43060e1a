package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"conceptweb/internal/core"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
	"conceptweb/woc"
)

// TestDefaultWorldSnapshotPinned builds the default world exactly as
// `wocbuild -out dir` does — seed 1, 120 restaurants, Build, Reconcile,
// SaveRecords into dir/records (writeLayout) — and pins the bytes of the
// snapshot it writes: the byte-identity baseline of the whole construction
// pipeline.
func TestDefaultWorldSnapshotPinned(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Seed = 1
	cfg.Restaurants = 120
	w := webgen.Generate(cfg)
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	b := &core.Builder{Fetcher: w, Cfg: core.StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	built, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	built.Reconcile("restaurant", core.PreferSupport)

	dir := t.TempDir()
	if _, err := built.SaveRecords(dir, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "lrec.snap"))
	if err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSum = 743505, "ae1eefe6d19809a8bcd540d78dcef8dc66c90de68b7ed30f90995d44c3ce8355"
	if sum := fmt.Sprintf("%x", sha256.Sum256(snap)); len(snap) != wantLen || sum != wantSum {
		t.Errorf("lrec.snap is %d bytes with sha256 %s, want %d bytes with sha256 %s", len(snap), sum, wantLen, wantSum)
	}
}

// TestOutLayoutReopens writes a heavy-tail build as `wocbuild -out dir`
// does and reopens it with woc.Open: the same records, and the manifest
// names the world, so refetching pages finds them unchanged.
func TestOutLayoutReopens(t *testing.T) {
	const seed, pages = 7, 600
	scfg := webgen.HeavyTailConfig(pages)
	scfg.Seed = seed
	w := webgen.NewStreamWorld(scfg)
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	cfg := core.ScaleConfig(reg, w.Cities(), webgen.Cuisines())
	cfg.Shards = 2
	dir := t.TempDir()
	ps, err := webgraph.OpenDiskStore(filepath.Join(dir, "pages"), webgraph.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.PageStore = ps
	built, _, err := (&core.Builder{Fetcher: w, Cfg: cfg}).BuildStream(w)
	if err != nil {
		t.Fatal(err)
	}
	built.Reconcile("restaurant", core.PreferSupport)
	records := built.Records.Len()
	m := woc.Manifest{Profile: "heavytail", Seed: seed, Size: pages, Cities: w.Cities(), Cuisines: webgen.Cuisines()}
	err = writeLayout(built, dir, cfg.Shards, m)
	built.Close()
	if err != nil {
		t.Fatal(err)
	}

	sys, err := woc.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if h := sys.StoreHealth(); len(h.Shards) != cfg.Shards || h.SnapshotRecords != records {
		t.Errorf("reopened store: %d shards, %d records; wrote %d shards, %d records",
			len(h.Shards), h.SnapshotRecords, cfg.Shards, records)
	}
	urls := sys.PageURLs()
	st, err := sys.Refresh(urls[len(urls)-20:])
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesUnchanged != 20 {
		t.Errorf("refresh over the manifest's world: %+v, want 20 unchanged", st)
	}
}
