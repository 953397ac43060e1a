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
)

// TestDefaultWorldSnapshotPinned builds the default world exactly as
// `wocbuild -out dir` does — seed 1, 120 restaurants, Build, Reconcile,
// persistRecords — and pins the bytes of the snapshot it writes: the
// byte-identity baseline of the whole construction pipeline.
func TestDefaultWorldSnapshotPinned(t *testing.T) {
	cfg := webgen.DefaultConfig()
	cfg.Seed = 1
	cfg.Restaurants = 120
	w := webgen.Generate(cfg)
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	b := &core.Builder{Fetcher: w, Cfg: core.StandardConfig(reg, w.Cities(), webgen.Cuisines())}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	woc.Reconcile("restaurant", core.PreferSupport)

	dir := t.TempDir()
	persistRecords(woc, reg, dir, 0)
	snap, err := os.ReadFile(filepath.Join(dir, "lrec.snap"))
	if err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSum = 743505, "ae1eefe6d19809a8bcd540d78dcef8dc66c90de68b7ed30f90995d44c3ce8355"
	if sum := fmt.Sprintf("%x", sha256.Sum256(snap)); len(snap) != wantLen || sum != wantSum {
		t.Errorf("lrec.snap is %d bytes with sha256 %s, want %d bytes with sha256 %s", len(snap), sum, wantLen, wantSum)
	}
}
