package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"conceptweb/woc"
)

// TestDefaultWorldSnapshotPinned runs `wocbuild -out dir`'s function —
// woc.BuildDir over seed 1's default world of 120 restaurants — and pins
// the bytes of the snapshot it writes into dir/records: the byte-identity
// baseline of the whole construction pipeline.
func TestDefaultWorldSnapshotPinned(t *testing.T) {
	dir := t.TempDir()
	built, err := woc.BuildDir(dir, woc.Manifest{Profile: "default", Seed: 1, Size: 120}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, "records", "lrec.snap"))
	if err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSum = 743505, "ae1eefe6d19809a8bcd540d78dcef8dc66c90de68b7ed30f90995d44c3ce8355"
	if sum := fmt.Sprintf("%x", sha256.Sum256(snap)); len(snap) != wantLen || sum != wantSum {
		t.Errorf("lrec.snap is %d bytes with sha256 %s, want %d bytes with sha256 %s", len(snap), sum, wantLen, wantSum)
	}
}

// TestOutLayoutReopens writes a heavy-tail build with woc.BuildDir, as
// `wocbuild -out dir` does, and reopens it with woc.Open: the same records,
// and the manifest names the world, so refetching pages finds them
// unchanged.
func TestOutLayoutReopens(t *testing.T) {
	dir := t.TempDir()
	built, err := woc.BuildDir(dir, woc.Manifest{Profile: "heavytail", Seed: 7, Size: 600}, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := built.Records.Len()
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}

	sys, err := woc.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if h := sys.StoreHealth(); h.SnapshotRecords != records {
		t.Errorf("reopened store: %d records, wrote %d", h.SnapshotRecords, records)
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
