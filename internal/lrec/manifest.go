package lrec

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"conceptweb/internal/framelog"
)

// The manifest pins a sharded directory's partition count. Routing is
// hash(id) % N, so N is part of the data layout: reopening with a different
// N would look up every record on the wrong shard and resurrect deleted
// ones from stale partitions. The file exists only for N > 1 — a
// single-shard store is exactly the pre-sharding layout (lrec.log +
// lrec.snap, no manifest), which is what keeps old directories opening
// unchanged and new single-shard directories readable by old builds.
//
// Format (text, one header line then one key-value line):
//
//	lrec manifest v1
//	shards N
const (
	manifestName   = "lrec.manifest"
	manifestHeader = "lrec manifest v1"
)

// readManifest returns the pinned shard count, or 0 if dir has no manifest.
func readManifest(fs framelog.FS, dir string) (int, error) {
	f, err := fs.Open(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("lrec: manifest: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, 4096))
	if err != nil {
		return 0, fmt.Errorf("lrec: manifest: %w", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 || lines[0] != manifestHeader {
		return 0, fmt.Errorf("lrec: manifest: unrecognized format %q", string(data))
	}
	val, ok := strings.CutPrefix(lines[1], "shards ")
	if !ok {
		return 0, fmt.Errorf("lrec: manifest: unrecognized format %q", string(data))
	}
	n, err := strconv.Atoi(val)
	if err != nil || n < 2 {
		return 0, fmt.Errorf("lrec: manifest: bad shard count %q", val)
	}
	return n, nil
}

// writeManifest durably pins n as dir's shard count, replacing the file
// atomically like a snapshot, so a crash during first create leaves either
// no manifest (and no shard WALs yet) or a complete one.
func writeManifest(fs framelog.FS, dir string, n int) error {
	err := framelog.WriteFile(fs, filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s\nshards %d\n", manifestHeader, n)
		return err
	})
	if err != nil {
		return fmt.Errorf("lrec: manifest: %w", err)
	}
	return nil
}

// resolveShardCount decides how many shards dir has, reconciling the
// manifest, any legacy single-file layout, and the caller's request
// (0 = unspecified). Precedence: an existing manifest wins and a
// conflicting explicit request is an error; an existing legacy layout is
// pinned at 1 the same way; otherwise the directory is fresh and the
// request (durably recorded for n > 1) decides.
func resolveShardCount(fs framelog.FS, dir string, requested int) (int, error) {
	pinned, err := readManifest(fs, dir)
	if err != nil {
		return 0, err
	}
	if pinned > 0 {
		if requested > 0 && requested != pinned {
			return 0, fmt.Errorf("lrec: open: directory has %d shards (pinned by manifest), cannot reopen with %d — resharding requires a rebuild", pinned, requested)
		}
		return pinned, nil
	}
	if legacyLayout(fs, dir) {
		if requested > 1 {
			return 0, fmt.Errorf("lrec: open: directory has a single-WAL layout, cannot reopen with %d shards — resharding requires a rebuild", requested)
		}
		return 1, nil
	}
	n := requested
	if n < 1 {
		n = 1
	}
	if n > 1 {
		if err := writeManifest(fs, dir, n); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// legacyLayout reports whether dir already holds a pre-sharding single-WAL
// store (lrec.log or lrec.snap present).
func legacyLayout(fs framelog.FS, dir string) bool {
	for _, name := range []string{logName, snapName} {
		if f, err := fs.Open(filepath.Join(dir, name)); err == nil {
			f.Close()
			return true
		}
	}
	return false
}
