// Package framelog is the one framed append-only log under both of the
// repository's stores: lrec's write-ahead logs and snapshots, and webgraph's
// page segments. It owns the frame format, the rule that decides what a bad
// frame means on replay and how it is repaired, the positional read of one
// frame, the atomic replacement of a whole file, and the filesystem seam
// (FS) the stores' fault-injection tests substitute. What a payload holds,
// and the append handle with its degraded latch, stay with each store.
//
// A log is a sequence of frames:
//
//	frame := length(u32 LE) crc32c(u32 LE, of payload) payload
//
// An empty payload is not a frame: a zero-filled tail, which some
// filesystems leave after a crash, must read as a tear, not as valid data.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
)

// HeaderSize is the size of a frame header: length and CRC.
const HeaderSize = 8

// ErrCorrupt reports damage that is not a torn tail: a bad frame with a
// valid frame after it, any bad frame in a sealed log, or a payload its
// store cannot decode.
var ErrCorrupt = errors.New("corrupt log")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewFrame returns an empty frame with room for a payload of about n bytes.
// Append the payload to it, then Seal it.
func NewFrame(n int) []byte { return make([]byte, HeaderSize, HeaderSize+n) }

// Seal fills in the header of a frame built by NewFrame and returns it, ready
// to be appended with one Write.
func Seal(frame []byte) []byte {
	p := frame[HeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(p)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(p, castagnoli))
	return frame
}

// frameAt returns the payload of the frame at data[off:], or false when the
// bytes there are not a complete valid frame. The declared length is checked
// against the bytes actually left before anything is read for it.
func frameAt(data []byte, off int) ([]byte, bool) {
	if len(data)-off < HeaderSize {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(data[off:])
	if n == 0 || uint64(n) > uint64(len(data)-off-HeaderSize) {
		return nil, false
	}
	p := data[off+HeaderSize : off+HeaderSize+int(n)]
	if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
		return nil, false
	}
	return p, true
}

// Recovery is what Replay found and repaired.
type Recovery struct {
	Frames         int   // valid frames replayed
	Size           int64 // offset just past the last valid frame: where appends resume
	TornTail       bool  // the log ended in a torn frame, now cut away
	TruncatedBytes int64 // bytes cut repairing it
}

// Replay reads the log at path and calls fn with each valid frame's offset
// and payload, in order; the payload is valid only during the call, and an
// error from fn stops the replay. A missing file is an empty log.
//
// One rule decides what a bad frame means. Followed by any CRC-valid frame,
// it is mid-log corruption: ErrCorrupt, and nothing is cut, since that would
// discard acknowledged frames. With nothing valid after it, it is a torn
// tail, what a crash mid-append leaves: Replay truncates the file back to
// the last valid frame, so appends resume there and not after garbage, and
// reports the cut. A sealed log was complete before it became visible (a
// snapshot renamed into place, a rolled segment), so a torn tail there is
// ErrCorrupt too.
//
// The whole file is read into memory: what replay allocates is bounded by
// the file's size, never by a length some frame declares.
func Replay(fsys FS, path string, sealed bool, fn func(off int64, payload []byte) error) (Recovery, error) {
	f, err := fsys.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return Recovery{}, nil
	}
	if err != nil {
		return Recovery{}, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return Recovery{}, fmt.Errorf("%s: %w", path, err)
	}
	var rec Recovery
	good := 0
	for good < len(data) {
		p, ok := frameAt(data, good)
		if !ok {
			break
		}
		if err := fn(int64(good), p); err != nil {
			return Recovery{}, fmt.Errorf("%s: frame at offset %d: %w", path, good, err)
		}
		rec.Frames++
		good += HeaderSize + len(p)
	}
	rec.Size = int64(good)
	if good == len(data) {
		return rec, nil
	}
	for i := good + 1; i+HeaderSize < len(data); i++ {
		if _, ok := frameAt(data, i); ok {
			return Recovery{}, fmt.Errorf("%w: %s: bad frame at offset %d but valid frame at %d — mid-log corruption, refusing to truncate", ErrCorrupt, path, good, i)
		}
	}
	if sealed {
		return Recovery{}, fmt.Errorf("%w: %s: torn frame at offset %d of a sealed log (not a crash artifact)", ErrCorrupt, path, good)
	}
	if err := fsys.Truncate(path, int64(good)); err != nil {
		return Recovery{}, fmt.Errorf("%s: truncate torn tail: %w", path, err)
	}
	rec.TornTail = true
	rec.TruncatedBytes = int64(len(data) - good)
	return rec, nil
}

// ReadAt reads the frame of size bytes, header included, that starts at off
// and returns its payload. size is what the caller recorded when it appended
// or replayed the frame, so a damaged header can never make ReadAt allocate
// more than that; a header that disagrees with it is ErrCorrupt.
func ReadAt(r io.ReaderAt, off int64, size int) ([]byte, error) {
	buf := make([]byte, size)
	if _, err := r.ReadAt(buf, off); err != nil {
		return nil, err
	}
	p, ok := frameAt(buf, 0)
	if !ok || len(p) != size-HeaderSize {
		return nil, fmt.Errorf("%w: bad frame at offset %d", ErrCorrupt, off)
	}
	return p, nil
}

// WriteFile atomically replaces path with what write produces: a temporary
// file beside it is written, fsynced and renamed over path, and the rename
// is made durable with a directory fsync. A crash at any point leaves the
// old file or the complete new one. A failure before the rename removes the
// temporary file; a failed directory fsync is returned, because until it
// succeeds the rename may not survive a crash.
func WriteFile(fsys FS, path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
