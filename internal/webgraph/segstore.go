package webgraph

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"conceptweb/internal/framelog"
)

// The page store: a directory of append-only segment files pages-0000.log,
// …, each a framelog log (lrec's frame format and replay rule, DESIGN §8)
// whose payloads are page operations:
//
//	payload := kind(u8) urlLen(uvarint) url html
//
// kind is framePut or frameDelete (deletes carry no html). A Put of an
// existing URL appends a fresh frame and moves the in-memory ref; there is
// no compaction. Directories in the older format (pages-NNNN.seg) are
// refused: replayed as framelog logs they would read as one long torn tail.
//
// Resident is the sparse index only — url → pageRef (segment, frame offset
// and size, content hash) plus the host map, tens of bytes per page; the
// HTML stays on disk. Frames are written unbuffered (so preads see every
// append) and fsynced on segment roll, Flush and Close. Reopen cuts a torn
// tail off the last segment; rolled segments are sealed. A write failure
// latches the store read-only, like lrec's degraded latch.

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

// Store holds crawled pages, indexed by URL and host, in a directory of
// segment files (the layout above). Safe for concurrent use. It keeps bytes,
// never a parse: every Get parses a fresh *Page that its caller owns. Pages
// (and their DOMs) are immutable and cache nothing lazily, so the build's
// workers may read one *Page, Doc included, from many goroutines at once.
type Store struct {
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
	// gets and parses count the read path: every Get parses the page or
	// fails, and nothing else in a store parses.
	gets, parses atomic.Uint64
}

// StoreStats is a snapshot of a store's read-path counters since it was
// opened: Get calls, and the HTML parses they performed. Gets exceeds Parses
// by the reads that failed (a missing or unreadable page).
type StoreStats struct {
	Gets, Parses uint64
}

// OpenDiskStore opens (or creates) a page store rooted at dir. Reopening a
// directory replays the segment frames to rebuild the in-memory offset
// index, repairing a torn tail in the final segment the way lrec.Open
// repairs its WAL; any other bad frame fails with ErrCorrupt, and a
// directory in the old segment format fails too.
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
	s := &Store{
		dir:      dir,
		fs:       fs,
		refs:     make(map[string]pageRef),
		byHost:   make(map[string][]string),
		segBytes: segBytes,
		readers:  make(map[int]framelog.File),
	}
	if err := s.replay(); err != nil {
		return nil, err
	}
	if err := s.openAppend(); err != nil {
		return nil, err
	}
	return s, nil
}

// DiskRecovery returns what OpenDiskStore's replay found; the zero value for
// a fresh directory.
func (s *Store) DiskRecovery() DiskRecovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// replay replays every segment in order rebuilding refs/byHost, repairing a
// torn tail in the last segment; the others are sealed.
func (s *Store) replay() error {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var segs []int
	for _, n := range names {
		if strings.HasPrefix(n, "pages-") && strings.HasSuffix(n, ".seg") {
			return fmt.Errorf("webgraph: %s holds %s, a page segment in the old format this build cannot read; delete the directory and re-ingest", s.dir, n)
		}
		if seg := segNum(n); seg >= 0 {
			segs = append(segs, seg)
		}
	}
	if len(segs) == 0 {
		return nil
	}
	s.recovery.Segments = len(segs)
	last := segs[len(segs)-1]
	for _, seg := range segs {
		rec, err := framelog.Replay(s.fs, segPath(s.dir, seg), seg != last, func(off int64, p []byte) error {
			return s.applyFrame(p, seg, off)
		})
		if err != nil {
			return fmt.Errorf("webgraph: open: %w", err)
		}
		s.recovery.Frames += rec.Frames
		s.recovery.TornTail = rec.TornTail
		s.recovery.TruncatedBytes = rec.TruncatedBytes
		s.curOff = rec.Size
	}
	s.curSeg = last
	return nil
}

func (s *Store) applyFrame(payload []byte, seg int, off int64) error {
	kind, url, html, err := decodePage(payload)
	if err != nil {
		return err
	}
	if kind == framePut {
		s.setRef(string(url), pageRef{seg: int32(seg), size: uint32(framelog.HeaderSize + len(payload)), off: off, hash: HashContent(string(html))})
	} else {
		s.dropRef(string(url))
	}
	return nil
}

// setRef points url's index entry at ref, listing a new url under its host.
func (s *Store) setRef(url string, ref pageRef) {
	if _, ok := s.refs[url]; !ok {
		host := HostOf(url)
		s.byHost[host] = append(s.byHost[host], url)
	}
	s.refs[url] = ref
}

// dropRef forgets url's index entry, if it has one.
func (s *Store) dropRef(url string) {
	if _, ok := s.refs[url]; !ok {
		return
	}
	delete(s.refs, url)
	host := HostOf(url)
	urls := s.byHost[host]
	for i, u := range urls {
		if u == url {
			urls = append(urls[:i], urls[i+1:]...)
			break
		}
	}
	if len(urls) == 0 {
		delete(s.byHost, host)
	} else {
		s.byHost[host] = urls
	}
}

// openAppend opens the current segment for appending (creating it fresh
// when the directory is empty).
func (s *Store) openAppend() error {
	f, err := s.fs.OpenFile(segPath(s.dir, s.curSeg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.w = f
	return s.fs.SyncDir(s.dir)
}

// roll fsyncs and closes the full segment and starts the next one.
func (s *Store) roll() error {
	if err := s.w.Sync(); err != nil {
		return err
	}
	if err := s.w.Close(); err != nil {
		return err
	}
	s.curSeg++
	s.curOff = 0
	return s.openAppend()
}

// writeFrame encodes and appends one frame, returning where it landed
// (captured before any roll the append triggers).
func (s *Store) writeFrame(kind byte, url, html string) (pageRef, error) {
	if s.latched != nil {
		return pageRef{}, s.latched
	}
	frame := encodePage(kind, url, html)
	ref := pageRef{seg: int32(s.curSeg), size: uint32(len(frame)), off: s.curOff}
	if _, err := s.w.Write(frame); err != nil {
		s.latched = fmt.Errorf("webgraph: segment append failed (store latched read-only): %w", err)
		return pageRef{}, s.latched
	}
	s.curOff += int64(len(frame))
	if s.curOff >= s.segBytes {
		if err := s.roll(); err != nil {
			s.latched = fmt.Errorf("webgraph: segment roll failed (store latched read-only): %w", err)
			return pageRef{}, s.latched
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
func (s *Store) reader(seg int) (framelog.File, error) {
	if f, ok := s.readers[seg]; ok {
		return f, nil
	}
	f, err := s.fs.Open(segPath(s.dir, seg))
	if err != nil {
		return nil, err
	}
	s.readers[seg] = f
	return f, nil
}

// Put adds or replaces a page, keeping its bytes and hash; the parse the
// caller holds is not retained. It reports whether the content changed
// (true for new pages and modified bodies). A write failure latches the
// store (see Err) and Put reports false.
func (s *Store) Put(p *Page) (changed bool) {
	return s.put(p.URL, p.HTML, p.Hash)
}

// PutRaw is Put for a caller holding only the page's bytes (an ingest, a
// crawl): it hashes and stores them without parsing.
func (s *Store) PutRaw(url, html string) (changed bool) {
	return s.put(url, html, HashContent(html))
}

// put appends the page's frame and moves its index entry, unless the stored
// hash says the bytes are unchanged.
func (s *Store) put(url, html string, hash uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ref, ok := s.refs[url]; ok && ref.hash == hash {
		return false
	}
	ref, err := s.writeFrame(framePut, url, html)
	if err != nil {
		return false
	}
	ref.hash = hash
	s.setRef(url, ref)
	return true
}

// Delete removes the page at url and reports whether it was present. The
// maintenance loop (§7.3) calls it when a page vanishes: forgetting the
// hash lets a page that reappears with identical bytes register as changed.
func (s *Store) Delete(url string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.refs[url]; !ok {
		return false
	}
	if _, err := s.writeFrame(frameDelete, url, ""); err != nil {
		return false
	}
	s.dropRef(url)
	return true
}

// Get reads the page at url and parses it: a new *Page on every call. Has,
// Hash and HostOf answer membership, content hash and host reading nothing.
func (s *Store) Get(url string) (*Page, error) {
	s.gets.Add(1)
	s.mu.Lock()
	ref, ok := s.refs[url]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	f, err := s.reader(int(ref.seg))
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Pread and parse outside the lock: frames are immutable once appended,
	// so a concurrent Delete/Put can't invalidate the bytes at ref, and
	// keeping reads unserialized is what lets the build's workers read
	// different hosts concurrently.
	frame, err := framelog.ReadAt(f, ref.off, int(ref.size))
	if err != nil {
		return nil, fmt.Errorf("webgraph: read %s: %w", url, err)
	}
	kind, u, html, err := decodePage(frame)
	if err != nil || kind != framePut || string(u) != url {
		return nil, fmt.Errorf("%w: frame at %s offset %d is not %s", ErrCorrupt, segName(int(ref.seg)), ref.off, url)
	}
	s.parses.Add(1)
	return NewPage(url, string(html)), nil
}

// Has reports whether a page is stored at url: an index lookup, no read.
func (s *Store) Has(url string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.refs[url]
	return ok
}

// Hash returns the content hash of the page stored at url, without a read.
// Maintenance compares it with a fetched body's to skip unchanged pages, and
// the extraction and link-feature memos key a page's entries by it.
func (s *Store) Hash(url string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.refs[url]
	return ref.hash, ok
}

// Len returns the number of stored pages.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.refs)
}

// URLs returns all stored URLs, sorted.
func (s *Store) URLs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.refs))
	for u := range s.refs {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Hosts returns all hosts with at least one page, sorted.
func (s *Store) Hosts() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byHost))
	for h := range s.byHost {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// HostPages returns the URLs of a host's pages, sorted.
func (s *Store) HostPages(host string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.byHost[host]...)
	sort.Strings(out)
	return out
}

// Scan calls fn for each page in sorted-URL order; return false to stop.
// Each page is read and parsed as the scan reaches it, so a full scan holds
// no more pages resident than fn keeps — and costs a parse per page.
func (s *Store) Scan(fn func(*Page) bool) {
	for _, u := range s.URLs() {
		p, err := s.Get(u)
		if err != nil {
			continue
		}
		if !fn(p) {
			return
		}
	}
}

// Stats returns the store's read-path counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{Gets: s.gets.Load(), Parses: s.parses.Load()}
}

// Flush makes appended pages durable (fsync). It returns the latched error
// of a store a write failure made read-only.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latched == nil && s.w != nil {
		s.latched = s.w.Sync()
	}
	return s.latched
}

// Close fsyncs and releases the segment file handles. The store must not be
// used after Close; a second Close is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if s.w != nil {
		if s.latched == nil {
			if err := s.w.Sync(); err != nil && first == nil {
				first = err
			}
		}
		if err := s.w.Close(); err != nil && first == nil {
			first = err
		}
		s.w = nil
	}
	for seg, f := range s.readers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.readers, seg)
	}
	return first
}

// Err returns the store's latched write error: nil while healthy. After a
// write failure the store keeps serving reads but rejects further puts,
// mirroring the lrec degraded-latch contract.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latched
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
