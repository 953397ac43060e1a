package webgraph

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"conceptweb/internal/framelog"
)

// Disk-backed page store backend (ISSUE 9 tentpole layer 2).
//
// Layout: a directory of append-only segment files pages-0000.log, … Each
// is a framelog log — lrec's frame format and replay rule, DESIGN §8 — whose
// payloads are page operations:
//
//	payload := kind(u8) urlLen(uvarint) url html
//
// kind is framePut or frameDelete (deletes carry no html). A Put of an
// existing URL appends a fresh frame and moves the in-memory ref; there is
// no compaction — the page store is a crawl cache, so space is reclaimed by
// deleting the directory and recrawling. Directories in the older format
// (pages-NNNN.seg) are refused: replayed as framelog logs they would read as
// one long torn tail and be emptied.
//
// Resident state is the sparse index only: map[url]pageRef (segment, frame
// offset and size, content hash) plus the byHost map — tens of bytes per
// page instead of the page itself. Raw HTML stays on disk; every get preads
// the frame, and the Store facade parses it, as it does for the memory
// backend.
//
// Durability: frames are written unbuffered (so preads see every append) and
// fsynced on segment roll, Flush and Close, not per Put. Reopen cuts a torn
// tail off the last segment; rolled segments are sealed. A write failure
// latches the store read-only (reads keep working), like lrec's per-shard
// degraded latch.

// ErrCorrupt reports segment damage that is not a torn tail of the last
// segment.
var ErrCorrupt = framelog.ErrCorrupt

const (
	framePut    = 1
	frameDelete = 2

	defaultSegmentBytes = 8 << 20
)

// DiskOptions configures OpenDiskStore. The zero value gives 8 MiB
// segments.
type DiskOptions struct {
	// SegmentBytes rolls to a new segment file once the current one
	// exceeds this size (<=0: default 8 MiB).
	SegmentBytes int64

	fs framelog.FS // test seam; nil means the real filesystem
}

// DiskRecovery describes what reopening a segment directory found.
type DiskRecovery struct {
	Segments       int   // segment files opened
	Frames         int   // valid frames replayed
	TornTail       bool  // last segment ended in a torn frame
	TruncatedBytes int64 // bytes cut repairing the torn tail
}

// pageRef locates a page's latest frame: which segment, at what offset and
// how large (so a read allocates what was written, whatever the bytes on
// disk now say), plus the content hash so Put's changed-detection and
// Delete's hash-forgetting (gone-page resurrection, §7.3) work without
// reading disk.
type pageRef struct {
	seg  int32
	size uint32
	off  int64
	hash uint64
}

type diskBackend struct {
	mu  sync.Mutex
	dir string
	fs  framelog.FS

	refs   map[string]pageRef
	byHost map[string][]string

	segBytes int64
	curSeg   int
	curOff   int64
	w        framelog.File         // append handle for the current segment
	readers  map[int]framelog.File // lazily opened read handles per segment

	latched  error
	recovery DiskRecovery
}

// OpenDiskStore opens (or creates) a disk-backed page store rooted at dir
// and returns it behind the standard Store facade. Reopening a directory
// replays the segment frames to rebuild the in-memory offset index,
// repairing a torn tail in the final segment the way lrec.Open repairs its
// WAL; any other bad frame fails with ErrCorrupt, and a directory in the
// old segment format fails too.
func OpenDiskStore(dir string, opts DiskOptions) (*Store, error) {
	fs := opts.fs
	if fs == nil {
		fs = framelog.OS{}
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &diskBackend{
		dir:      dir,
		fs:       fs,
		refs:     make(map[string]pageRef),
		byHost:   make(map[string][]string),
		segBytes: segBytes,
		readers:  make(map[int]framelog.File),
	}
	if err := b.replay(); err != nil {
		return nil, err
	}
	if err := b.openAppend(); err != nil {
		return nil, err
	}
	return &Store{b: b}, nil
}

// DiskRecovery returns what the last OpenDiskStore replay found; the zero
// value for in-memory stores and fresh directories.
func (s *Store) DiskRecovery() DiskRecovery {
	if d, ok := s.b.(*diskBackend); ok {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.recovery
	}
	return DiskRecovery{}
}

// replay replays every segment in order rebuilding refs/byHost, repairing a
// torn tail in the last segment; the others are sealed.
func (b *diskBackend) replay() error {
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		return err
	}
	var segs []int
	for _, n := range names {
		if strings.HasPrefix(n, "pages-") && strings.HasSuffix(n, ".seg") {
			return fmt.Errorf("webgraph: %s holds %s, a page segment in the old format this build cannot read; delete the directory and re-ingest", b.dir, n)
		}
		if s := segNum(n); s >= 0 {
			segs = append(segs, s)
		}
	}
	if len(segs) == 0 {
		return nil
	}
	b.recovery.Segments = len(segs)
	last := segs[len(segs)-1]
	for _, seg := range segs {
		rec, err := framelog.Replay(b.fs, segPath(b.dir, seg), seg != last, func(off int64, p []byte) error {
			return b.applyFrame(p, seg, off)
		})
		if err != nil {
			return fmt.Errorf("webgraph: open: %w", err)
		}
		b.recovery.Frames += rec.Frames
		b.recovery.TornTail = rec.TornTail
		b.recovery.TruncatedBytes = rec.TruncatedBytes
		b.curOff = rec.Size
	}
	b.curSeg = last
	return nil
}

func (b *diskBackend) applyFrame(payload []byte, seg int, off int64) error {
	kind, url, html, err := decodePage(payload)
	if err != nil {
		return err
	}
	if kind == framePut {
		b.setRef(string(url), pageRef{seg: int32(seg), size: uint32(framelog.HeaderSize + len(payload)), off: off, hash: HashContent(string(html))})
	} else {
		b.dropRef(string(url))
	}
	return nil
}

// setRef points url's index entry at ref, listing a new url under its host.
func (b *diskBackend) setRef(url string, ref pageRef) {
	if _, ok := b.refs[url]; !ok {
		host, _ := splitURL(url)
		b.byHost[host] = append(b.byHost[host], url)
	}
	b.refs[url] = ref
}

// dropRef forgets url's index entry, if it has one.
func (b *diskBackend) dropRef(url string) {
	if _, ok := b.refs[url]; !ok {
		return
	}
	delete(b.refs, url)
	host, _ := splitURL(url)
	urls := b.byHost[host]
	for i, u := range urls {
		if u == url {
			urls = append(urls[:i], urls[i+1:]...)
			break
		}
	}
	if len(urls) == 0 {
		delete(b.byHost, host)
	} else {
		b.byHost[host] = urls
	}
}

// openAppend opens the current segment for appending (creating it fresh
// when the directory is empty).
func (b *diskBackend) openAppend() error {
	f, err := b.fs.OpenFile(segPath(b.dir, b.curSeg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	b.w = f
	return b.fs.SyncDir(b.dir)
}

// roll fsyncs and closes the full segment and starts the next one.
func (b *diskBackend) roll() error {
	if err := b.w.Sync(); err != nil {
		return err
	}
	if err := b.w.Close(); err != nil {
		return err
	}
	b.curSeg++
	b.curOff = 0
	return b.openAppend()
}

// writeFrame encodes and appends one frame, returning where it landed
// (captured before any roll the append triggers).
func (b *diskBackend) writeFrame(kind byte, url, html string) (pageRef, error) {
	if b.latched != nil {
		return pageRef{}, b.latched
	}
	frame := encodePage(kind, url, html)
	ref := pageRef{seg: int32(b.curSeg), size: uint32(len(frame)), off: b.curOff}
	if _, err := b.w.Write(frame); err != nil {
		b.latched = fmt.Errorf("webgraph: segment append failed (store latched read-only): %w", err)
		return pageRef{}, b.latched
	}
	b.curOff += int64(len(frame))
	if b.curOff >= b.segBytes {
		if err := b.roll(); err != nil {
			b.latched = fmt.Errorf("webgraph: segment roll failed (store latched read-only): %w", err)
			return pageRef{}, b.latched
		}
	}
	return ref, nil
}

// encodePage returns one page operation as a sealed frame.
func encodePage(kind byte, url, html string) []byte {
	frame := framelog.NewFrame(1 + binary.MaxVarintLen64 + len(url) + len(html))
	frame = append(frame, kind)
	frame = binary.AppendUvarint(frame, uint64(len(url)))
	frame = append(frame, url...)
	frame = append(frame, html...)
	return framelog.Seal(frame)
}

// decodePage splits a page operation's payload; url and html alias it.
func decodePage(p []byte) (kind byte, url, html []byte, err error) {
	if len(p) > 0 {
		n, w := binary.Uvarint(p[1:])
		if (p[0] == framePut || p[0] == frameDelete) && w > 0 && n > 0 && n <= uint64(len(p)-1-w) {
			return p[0], p[1+w : 1+w+int(n)], p[1+w+int(n):], nil
		}
	}
	return 0, nil, nil, fmt.Errorf("%w: bad page frame payload", ErrCorrupt)
}

// reader returns (lazily opening) the read handle for a segment. The
// current append segment is readable through a second handle; appends go
// straight to the file, so preads observe them.
func (b *diskBackend) reader(seg int) (framelog.File, error) {
	if f, ok := b.readers[seg]; ok {
		return f, nil
	}
	f, err := b.fs.Open(segPath(b.dir, seg))
	if err != nil {
		return nil, err
	}
	b.readers[seg] = f
	return f, nil
}

// --- backend interface ---

// put appends the page's frame and moves its index entry, unless the stored
// hash says the bytes are unchanged.
func (b *diskBackend) put(url, html string, hash uint64) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ref, ok := b.refs[url]; ok && ref.hash == hash {
		return false, nil
	}
	ref, err := b.writeFrame(framePut, url, html)
	if err != nil {
		return false, err
	}
	ref.hash = hash
	b.setRef(url, ref)
	return true, nil
}

func (b *diskBackend) delete(url string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.refs[url]; !ok {
		return false
	}
	if _, err := b.writeFrame(frameDelete, url, ""); err != nil {
		return false
	}
	b.dropRef(url)
	return true
}

func (b *diskBackend) get(url string) (string, error) {
	b.mu.Lock()
	ref, ok := b.refs[url]
	if !ok {
		b.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	f, err := b.reader(int(ref.seg))
	b.mu.Unlock()
	if err != nil {
		return "", err
	}
	// Pread outside the lock (and the facade parses outside it too): frames
	// are immutable once appended, so a concurrent Delete/Put can't
	// invalidate the bytes at ref, and keeping reads unserialized is what
	// lets the build's workers read different hosts concurrently.
	frame, err := framelog.ReadAt(f, ref.off, int(ref.size))
	if err != nil {
		return "", fmt.Errorf("webgraph: read %s: %w", url, err)
	}
	kind, u, html, err := decodePage(frame)
	if err != nil || kind != framePut || string(u) != url {
		return "", fmt.Errorf("%w: frame at %s offset %d is not %s", ErrCorrupt, segName(int(ref.seg)), ref.off, url)
	}
	return string(html), nil
}

func (b *diskBackend) has(url string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.refs[url]
	return ok
}

func (b *diskBackend) hash(url string) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ref, ok := b.refs[url]
	return ref.hash, ok
}

func (b *diskBackend) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.refs)
}

func (b *diskBackend) urls() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.refs))
	for u := range b.refs {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func (b *diskBackend) hosts() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.byHost))
	for h := range b.byHost {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

func (b *diskBackend) hostPages(host string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := append([]string(nil), b.byHost[host]...)
	sort.Strings(out)
	return out
}

func (b *diskBackend) flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.latched != nil {
		return b.latched
	}
	if b.w == nil {
		return nil
	}
	if err := b.w.Sync(); err != nil {
		b.latched = err
		return err
	}
	return nil
}

func (b *diskBackend) close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	var first error
	if b.w != nil {
		if b.latched == nil {
			if err := b.w.Sync(); err != nil && first == nil {
				first = err
			}
		}
		if err := b.w.Close(); err != nil && first == nil {
			first = err
		}
		b.w = nil
	}
	for seg, f := range b.readers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(b.readers, seg)
	}
	return first
}

func (b *diskBackend) err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.latched
}

// segName returns the file name of segment n ("pages-0003.log").
func segName(n int) string { return fmt.Sprintf("pages-%04d.log", n) }

// segNum parses a segment number out of a file name, or -1.
func segNum(name string) int {
	var n int
	if _, err := fmt.Sscanf(name, "pages-%d.log", &n); err != nil || segName(n) != name {
		return -1
	}
	return n
}

func segPath(dir string, n int) string { return filepath.Join(dir, segName(n)) }
