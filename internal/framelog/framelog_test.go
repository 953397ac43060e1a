package framelog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// validAt is the brute-force oracle for "a complete CRC-valid frame starts
// at data[i:]", written from the format's definition rather than shared
// with the reader it checks.
func validAt(data []byte, i int) bool {
	if i+HeaderSize > len(data) {
		return false
	}
	n := int(binary.LittleEndian.Uint32(data[i:]))
	if n == 0 || n > len(data)-i-HeaderSize {
		return false
	}
	p := data[i+HeaderSize : i+HeaderSize+n]
	return crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)) == binary.LittleEndian.Uint32(data[i+4:])
}

func frameOf(payload string) []byte {
	return Seal(append(NewFrame(len(payload)), payload...))
}

// FuzzFrames: arbitrary bytes as a log file. Replay must not panic; the
// frames it replays must re-encode to the bytes before the offset it
// stopped at, byte for byte, and read back by ReadAt; its torn-or-corrupt
// verdict must match the oracle "some CRC-valid frame starts after the bad
// offset"; a torn tail must be cut exactly and corruption leave the file
// untouched; and what it allocates must be bounded by the input's size,
// whatever lengths the bytes declare. The corpus in testdata is seeded
// from real WAL, snapshot and page-segment bytes.
func FuzzFrames(f *testing.F) {
	two := append(frameOf("one"), frameOf("two")...)
	two = two[:len(two):len(two)] // each seed below appends to a fresh copy
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-2])                                 // torn tail
	f.Add(append(append([]byte{1, 2, 3}, two...), 0, 0, 0)) // garbage before valid frames
	f.Add(append(two, make([]byte, 16)...))                 // zero-filled tail
	forged := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(forged, 250<<20)
	f.Add(append(two, forged...)) // declares 250 MiB
	path := filepath.Join(f.TempDir(), "fuzz.log")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Sized up front so the callback allocates nothing of its own.
		offs := make([]int64, 0, len(data)/(HeaderSize+1)+1)
		sizes := make([]int, 0, cap(offs))
		misplaced := false
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := Replay(OS{}, path, false, func(off int64, p []byte) error {
			end := int(off) + HeaderSize + len(p)
			misplaced = misplaced || end > len(data) || !bytes.Equal(p, data[int(off)+HeaderSize:end])
			offs = append(offs, off)
			sizes = append(sizes, HeaderSize+len(p))
			return nil
		})
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16+4*uint64(len(data)) {
			t.Fatalf("replaying %d bytes allocated %d", len(data), n)
		}

		good := 0
		for validAt(data, good) {
			good += HeaderSize + int(binary.LittleEndian.Uint32(data[good:]))
		}
		corrupt := false
		for i := good + 1; i < len(data) && !corrupt; i++ {
			corrupt = validAt(data, i)
		}
		fi, statErr := os.Stat(path)
		if statErr != nil {
			t.Fatal(statErr)
		}
		if corrupt {
			if !errors.Is(err, ErrCorrupt) || fi.Size() != int64(len(data)) {
				t.Fatalf("bad frame at %d with a valid frame after it: err = %v, file %d bytes of %d", good, err, fi.Size(), len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if misplaced {
			t.Fatal("a replayed payload is not the bytes at its offset")
		}
		if rec.Size != int64(good) || rec.Frames != len(offs) || fi.Size() != int64(good) ||
			rec.TornTail != (good < len(data)) || rec.TruncatedBytes != int64(len(data)-good) {
			t.Fatalf("recovery %+v, file %d bytes; oracle: %d good bytes of %d", rec, fi.Size(), good, len(data))
		}
		var re []byte
		for i, off := range offs {
			if int64(len(re)) != off {
				t.Fatalf("frame %d replayed at offset %d, re-encoding puts it at %d", i, off, len(re))
			}
			p := data[int(off)+HeaderSize : int(off)+sizes[i]]
			re = append(re, frameOf(string(p))...)
			got, err := ReadAt(bytes.NewReader(data), off, sizes[i])
			if err != nil || !bytes.Equal(got, p) {
				t.Fatalf("ReadAt of frame %d: %q, %v; replay gave %q", i, got, err, p)
			}
		}
		if !bytes.Equal(re, data[:good]) {
			t.Fatal("replayed frames do not re-encode to the replayed prefix")
		}
	})
}
