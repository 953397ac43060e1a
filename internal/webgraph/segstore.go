package webgraph

import (
	"bufio"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
)

// Disk-backed page store backend (ISSUE 9 tentpole layer 2).
//
// Layout: a directory of append-only segment files pages-0000.seg,
// pages-0001.seg, … Each segment is a sequence of CRC-framed records:
//
//	[u32 crc][u8 kind][u32 urlLen][u32 htmlLen][url bytes][html bytes]
//
// kind is framePut or frameDelete (deletes carry no html; htmlLen is 0).
// crc is IEEE CRC-32 over everything after the crc field. Writes only ever
// append; a Put of an existing URL appends a fresh frame and moves the
// in-memory ref, and compaction is deliberately out of scope — the page
// store is a crawl cache, rebuildable by recrawl, so space is reclaimed by
// deleting the directory and recrawling rather than by an online GC.
//
// Resident state is the sparse index only: map[url]pageRef (segment, frame
// offset, content hash) plus the byHost map — tens of bytes per page
// instead of the page itself. Raw HTML stays on disk; Get preads the frame
// and re-parses, fronted by a small LRU of parsed *Page so host-local
// access patterns (extraction walks one host's pages together) mostly hit.
//
// Durability: frames are written directly (no user-space buffer), fsynced
// on segment roll, Flush, and Close — not per Put. A crash can therefore
// tear the tail of the last segment; reopen truncates at the last valid
// frame, exactly lrec's torn-tail contract. A decode error in any
// non-final segment is real corruption and fails Open with ErrCorrupt.
// After a write failure the backend latches the error: reads keep working,
// further puts are rejected (mirroring lrec's degraded latch).

// ErrCorrupt reports unrecoverable segment corruption (a bad frame before
// the final segment's tail).
var ErrCorrupt = errors.New("webgraph: segment store corrupt")

const (
	framePut    = 1
	frameDelete = 2

	// frameHeader is crc(4) + kind(1) + urlLen(4) + htmlLen(4).
	frameHeader = 13

	defaultSegmentBytes = 8 << 20
	defaultCachePages   = 1024

	// maxFrameField guards replay against garbage lengths.
	maxFrameField = 1 << 28
)

// DiskOptions configures OpenDiskStore. The zero value gives sane
// defaults: 1024 cached parsed pages, 8 MiB segments.
type DiskOptions struct {
	// CachePages is the LRU capacity in parsed pages (<=0: default 1024).
	CachePages int
	// SegmentBytes rolls to a new segment file once the current one
	// exceeds this size (<=0: default 8 MiB).
	SegmentBytes int64

	fs pageFS // test seam; nil means the real filesystem
}

// DiskRecovery describes what reopening a segment directory found.
type DiskRecovery struct {
	Segments       int   // segment files opened
	Frames         int   // valid frames replayed
	TornTail       bool  // last segment ended in a torn frame
	TruncatedBytes int64 // bytes cut repairing the torn tail
}

// pageRef locates a page's latest frame: which segment, at what offset,
// plus the content hash so Put's changed-detection and Delete's
// hash-forgetting (gone-page resurrection, §7.3) work without reading disk.
type pageRef struct {
	seg  int
	off  int64
	hash uint64
}

type diskBackend struct {
	mu  sync.Mutex
	dir string
	fs  pageFS

	refs   map[string]pageRef
	byHost map[string][]string

	segBytes int64
	curSeg   int
	curOff   int64
	w        pageFile                 // append handle for the current segment
	readers  map[int]pageFile         // lazily opened read handles per segment
	cache    map[string]*list.Element // url -> LRU element
	lru      *list.List               // front = most recent; values are *cacheEntry
	cacheCap int

	latched  error
	recovery DiskRecovery
	stats    *storeCounters
}

type cacheEntry struct {
	url  string
	page *Page
}

// OpenDiskStore opens (or creates) a disk-backed page store rooted at dir
// and returns it behind the standard Store facade. Reopening a directory
// replays the segment frames to rebuild the in-memory offset index,
// repairing a torn tail in the final segment the way lrec.Open repairs its
// WAL; corruption earlier than that fails with ErrCorrupt.
func OpenDiskStore(dir string, opts DiskOptions) (*Store, error) {
	fs := opts.fs
	if fs == nil {
		fs = osFS{}
	}
	cacheCap := opts.CachePages
	if cacheCap <= 0 {
		cacheCap = defaultCachePages
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
		readers:  make(map[int]pageFile),
		cache:    make(map[string]*list.Element),
		lru:      list.New(),
		cacheCap: cacheCap,
		stats:    new(storeCounters),
	}
	if err := b.replay(); err != nil {
		return nil, err
	}
	if err := b.openAppend(); err != nil {
		return nil, err
	}
	return &Store{b: b, stats: b.stats}, nil
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

// replay scans every segment in order rebuilding refs/byHost, repairing a
// torn tail in the last segment.
func (b *diskBackend) replay() error {
	names, err := b.fs.ReadDir(b.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var segs []int
	for _, n := range names {
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
		if err := b.replaySegment(seg, seg == last); err != nil {
			return err
		}
	}
	b.curSeg = last
	return nil
}

func (b *diskBackend) replaySegment(seg int, isLast bool) error {
	path := segPath(b.dir, seg)
	f, err := b.fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var off int64
	for {
		url, html, kind, n, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !isLast {
				return fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, segName(seg), off, err)
			}
			// Torn tail: cut the last segment back to the last valid frame
			// (lrec's WAL repair contract). n is what the failed decode
			// consumed; the rest of the file is garbage past the tear.
			rest, _ := io.Copy(io.Discard, r)
			if terr := b.fs.Truncate(path, off); terr != nil {
				return terr
			}
			b.recovery.TornTail = true
			b.recovery.TruncatedBytes += n + rest
			b.curOff = off
			return nil
		}
		b.recovery.Frames++
		b.applyFrame(url, html, kind, seg, off)
		off += n
	}
	if isLast {
		b.curOff = off
	}
	return nil
}

func (b *diskBackend) applyFrame(url, html string, kind byte, seg int, off int64) {
	host, _ := splitURL(url)
	switch kind {
	case framePut:
		if _, ok := b.refs[url]; !ok {
			b.byHost[host] = append(b.byHost[host], url)
		}
		b.refs[url] = pageRef{seg: seg, off: off, hash: HashContent(html)}
	case frameDelete:
		if _, ok := b.refs[url]; ok {
			delete(b.refs, url)
			b.dropHostURL(host, url)
		}
	}
}

func (b *diskBackend) dropHostURL(host, url string) {
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

// writeFrame encodes and appends one frame, returning the segment and
// offset it landed at (captured before any roll the append triggers).
func (b *diskBackend) writeFrame(kind byte, url, html string) (seg int, off int64, err error) {
	if b.latched != nil {
		return 0, 0, b.latched
	}
	frame := encodeFrame(kind, url, html)
	seg, off = b.curSeg, b.curOff
	if _, werr := b.w.Write(frame); werr != nil {
		b.latched = fmt.Errorf("webgraph: segment append failed (store latched read-only): %w", werr)
		return 0, 0, b.latched
	}
	b.curOff += int64(len(frame))
	if b.curOff >= b.segBytes {
		if rerr := b.roll(); rerr != nil {
			b.latched = fmt.Errorf("webgraph: segment roll failed (store latched read-only): %w", rerr)
			return 0, 0, b.latched
		}
	}
	return seg, off, nil
}

func encodeFrame(kind byte, url, html string) []byte {
	n := frameHeader + len(url) + len(html)
	buf := make([]byte, n)
	buf[4] = kind
	binary.LittleEndian.PutUint32(buf[5:9], uint32(len(url)))
	binary.LittleEndian.PutUint32(buf[9:13], uint32(len(html)))
	copy(buf[frameHeader:], url)
	copy(buf[frameHeader+len(url):], html)
	binary.LittleEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
	return buf
}

// readFrame decodes one frame from a sequential reader. size is the number
// of bytes consumed — the full frame on success, whatever the failed decode
// read on error (so torn-tail accounting can be exact). A clean EOF at a
// frame boundary returns io.EOF with size 0.
func readFrame(r io.Reader) (url, html string, kind byte, size int64, err error) {
	var hdr [frameHeader]byte
	n, err := io.ReadFull(r, hdr[:])
	size = int64(n)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			err = errors.New("short frame header")
		}
		return
	}
	kind = hdr[4]
	ulen := binary.LittleEndian.Uint32(hdr[5:9])
	hlen := binary.LittleEndian.Uint32(hdr[9:13])
	if (kind != framePut && kind != frameDelete) || ulen == 0 || ulen > maxFrameField || hlen > maxFrameField {
		err = errors.New("bad frame header")
		return
	}
	body := make([]byte, int(ulen)+int(hlen))
	n, err = io.ReadFull(r, body)
	size += int64(n)
	if err != nil {
		err = errors.New("short frame body")
		return
	}
	want := binary.LittleEndian.Uint32(hdr[0:4])
	crc := crc32.ChecksumIEEE(hdr[4:])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if crc != want {
		err = errors.New("frame crc mismatch")
		return
	}
	url = string(body[:ulen])
	html = string(body[ulen:])
	return
}

// readPageAt preads and decodes the frame at ref, returning the raw HTML.
// It takes the segment handle directly so callers can pread outside the
// store mutex (ReadAt on an *os.File is safe for concurrent use).
func readPageAt(f pageFile, url string, ref pageRef) (string, error) {
	var hdr [frameHeader]byte
	if _, err := f.ReadAt(hdr[:], ref.off); err != nil {
		return "", fmt.Errorf("webgraph: read %s: %w", url, err)
	}
	ulen := binary.LittleEndian.Uint32(hdr[5:9])
	hlen := binary.LittleEndian.Uint32(hdr[9:13])
	if hdr[4] != framePut || ulen == 0 || ulen > maxFrameField || hlen > maxFrameField {
		return "", fmt.Errorf("%w: bad frame for %s", ErrCorrupt, url)
	}
	body := make([]byte, int(ulen)+int(hlen))
	if _, err := f.ReadAt(body, ref.off+frameHeader); err != nil {
		return "", fmt.Errorf("webgraph: read %s: %w", url, err)
	}
	crc := crc32.ChecksumIEEE(hdr[4:])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if crc != binary.LittleEndian.Uint32(hdr[0:4]) {
		return "", fmt.Errorf("%w: crc mismatch for %s", ErrCorrupt, url)
	}
	if string(body[:ulen]) != url {
		return "", fmt.Errorf("%w: frame url mismatch for %s", ErrCorrupt, url)
	}
	return string(body[ulen:]), nil
}

// reader returns (lazily opening) the read handle for a segment. The
// current append segment is readable through a second handle; appends go
// straight to the file, so preads observe them.
func (b *diskBackend) reader(seg int) (pageFile, error) {
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

// cachePut inserts a parsed page into the LRU, evicting the tail.
func (b *diskBackend) cachePut(p *Page) {
	if el, ok := b.cache[p.URL]; ok {
		el.Value.(*cacheEntry).page = p
		b.lru.MoveToFront(el)
		return
	}
	b.cache[p.URL] = b.lru.PushFront(&cacheEntry{url: p.URL, page: p})
	for b.lru.Len() > b.cacheCap {
		tail := b.lru.Back()
		b.lru.Remove(tail)
		delete(b.cache, tail.Value.(*cacheEntry).url)
	}
}

func (b *diskBackend) cacheDrop(url string) {
	if el, ok := b.cache[url]; ok {
		b.lru.Remove(el)
		delete(b.cache, url)
	}
}

// --- backend interface ---

func (b *diskBackend) put(p *Page) (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	changed, err := b.appendPut(p.URL, p.Host, p.HTML, p.Hash)
	if changed {
		b.cachePut(p)
	}
	return changed, err
}

// putRaw stores a page without parsing it: hash, frame append, index entry.
// Nothing enters the parse cache (a cached parse of the URL's previous bytes
// leaves it), so bulk ingest neither pays for a DOM per page nor sweeps the
// LRU with pages nobody has asked for yet.
func (b *diskBackend) putRaw(url, html string) (bool, error) {
	host, _ := splitURL(url)
	hash := HashContent(html)
	b.mu.Lock()
	defer b.mu.Unlock()
	changed, err := b.appendPut(url, host, html, hash)
	if changed {
		b.cacheDrop(url)
	}
	return changed, err
}

// appendPut appends the page's frame and moves its index entry, unless the
// stored hash says the bytes are unchanged. Callers hold b.mu.
func (b *diskBackend) appendPut(url, host, html string, hash uint64) (bool, error) {
	ref, ok := b.refs[url]
	if ok && ref.hash == hash {
		return false, nil
	}
	seg, off, err := b.writeFrame(framePut, url, html)
	if err != nil {
		return false, err
	}
	if !ok {
		b.byHost[host] = append(b.byHost[host], url)
	}
	b.refs[url] = pageRef{seg: seg, off: off, hash: hash}
	return true, nil
}

func (b *diskBackend) delete(url string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.refs[url]; !ok {
		return false
	}
	if _, _, err := b.writeFrame(frameDelete, url, ""); err != nil {
		return false
	}
	host, _ := splitURL(url)
	delete(b.refs, url)
	b.dropHostURL(host, url)
	b.cacheDrop(url)
	return true
}

func (b *diskBackend) get(url string) (*Page, error) {
	b.mu.Lock()
	if el, ok := b.cache[url]; ok {
		b.lru.MoveToFront(el)
		p := el.Value.(*cacheEntry).page
		b.mu.Unlock()
		b.stats.hits.Add(1)
		return p, nil
	}
	ref, ok := b.refs[url]
	if !ok {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, url)
	}
	f, err := b.reader(ref.seg)
	b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Pread + parse outside the lock: frames are immutable once appended,
	// so a concurrent Delete/Put can't invalidate the bytes at ref, and
	// keeping the (expensive) HTML parse unserialized is what lets the
	// build's workers read different hosts concurrently. Two goroutines
	// racing on the same cold URL may both parse; last cachePut wins.
	html, err := readPageAt(f, url, ref)
	if err != nil {
		return nil, err
	}
	p := NewPage(url, html)
	b.stats.parses.Add(1)
	b.mu.Lock()
	b.cachePut(p)
	b.mu.Unlock()
	return p, nil
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
