package lrec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"conceptweb/internal/framelog"
)

// frameBytes encodes one framed op for corruption tests.
func frameBytes(t *testing.T, op byte, r *Record) []byte {
	t.Helper()
	return encodeOp(op, r)
}

// errTornTail is readFrameFrom's report that replay found a torn tail.
var errTornTail = errors.New("torn tail")

// replayBytes replays b as a whole WAL, exactly as Open replays the store's
// log (torn tail cut, mid-log corruption refused), and returns every op it
// decoded plus what the replay found.
func replayBytes(t *testing.T, b []byte) (ops []byte, recs []*Record, sizes []int64, rec framelog.Recovery, err error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), logName)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err = framelog.Replay(framelog.OS{}, path, false, func(_ int64, p []byte) error {
		op, r, err := decodeOp(p)
		ops, recs, sizes = append(ops, op), append(recs, r), append(sizes, int64(framelog.HeaderSize+len(p)))
		return err
	})
	return ops, recs, sizes, rec, err
}

// readFrameFrom returns the first frame of b replayed as a WAL and its
// on-disk size: io.EOF for an empty log, errTornTail when replay cut a torn
// tail before any complete frame.
func readFrameFrom(t *testing.T, b []byte) (byte, *Record, int64, error) {
	t.Helper()
	ops, recs, sizes, rec, err := replayBytes(t, b)
	switch {
	case err != nil:
		return 0, nil, 0, err
	case len(ops) > 0:
		return ops[0], recs[0], sizes[0], nil
	case rec.TornTail:
		return 0, nil, 0, errTornTail
	}
	return 0, nil, 0, io.EOF
}

func TestReadFrameReportsSize(t *testing.T) {
	enc := frameBytes(t, opPut, testRecord("id", "Name", "City"))
	op, r, n, err := readFrameFrom(t, enc)
	if err != nil {
		t.Fatal(err)
	}
	if op != opPut || r.ID != "id" {
		t.Errorf("op=%d r=%v", op, r)
	}
	if n != int64(len(enc)) {
		t.Errorf("n = %d, want %d", n, len(enc))
	}
}

// TestReadFrameCRCFlip: flipping any single payload byte must fail the CRC
// and surface as errTornTail (the replay layer decides whether that means a
// truncatable tail or refusal, based on what follows).
func TestReadFrameCRCFlip(t *testing.T) {
	enc := frameBytes(t, opPut, testRecord("id", "Gochi", "Cupertino"))
	for i := framelog.HeaderSize; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		if _, _, _, err := readFrameFrom(t, bad); err != errTornTail {
			t.Fatalf("flip at %d: err = %v, want errTornTail", i, err)
		}
	}
}

// TestReadFrameHeaderCorruption: header damage (length or CRC field) must
// never be accepted, whatever it decodes to.
func TestReadFrameHeaderCorruption(t *testing.T) {
	enc := frameBytes(t, opPut, testRecord("id", "Gochi", "Cupertino"))
	for i := 0; i < framelog.HeaderSize; i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xFF
		if _, _, _, err := readFrameFrom(t, bad); err == nil {
			t.Fatalf("header flip at %d accepted", i)
		}
	}
}

// TestReadFrameOversizeLength: an implausible length prefix (zero, or past
// the sanity bound) is rejected without attempting a giant allocation.
func TestReadFrameOversizeLength(t *testing.T) {
	for _, length := range []uint32{0, 1<<28 + 1, 1<<32 - 1} {
		var hdr [framelog.HeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:], length)
		binary.LittleEndian.PutUint32(hdr[4:], 0xDEADBEEF)
		if _, _, _, err := readFrameFrom(t, hdr[:]); err != errTornTail {
			t.Errorf("length %d: err = %v, want errTornTail", length, err)
		}
	}
}

// TestReadFrameTruncationEveryBoundary: a frame cut at every possible byte
// is either a clean EOF (nothing read) or a torn tail — never an accepted
// frame and never a panic.
func TestReadFrameTruncationEveryBoundary(t *testing.T) {
	enc := frameBytes(t, opPut, testRecord("id", "café 饺子馆", "Cupertino"))
	for cut := 0; cut < len(enc); cut++ {
		_, _, _, err := readFrameFrom(t, enc[:cut])
		switch {
		case cut == 0:
			if err != io.EOF {
				t.Fatalf("cut 0: err = %v, want io.EOF", err)
			}
		default:
			if err != errTornTail {
				t.Fatalf("cut %d: err = %v, want errTornTail", cut, err)
			}
		}
	}
	// Two frames cut inside the second: first survives, second is torn.
	two := append(append([]byte(nil), enc...), enc...)
	ops, _, _, rec, err := replayBytes(t, two[:len(enc)+5])
	if err != nil || len(ops) != 1 {
		t.Fatalf("first frame: %d frames, %v", len(ops), err)
	}
	if !rec.TornTail {
		t.Fatal("second frame: no torn tail reported")
	}
}

// TestEncodeDecodeMultibyte: a record whose every string field holds
// multibyte UTF-8 must round-trip bit-exactly through EncodeRecord /
// DecodeRecord and through framing.
func TestEncodeDecodeMultibyte(t *testing.T) {
	r := NewRecord("идентификатор-🍜", "restaurante-日本")
	r.Version = 42
	r.Add("nom", AttrValue{
		Value:      "Gochi 餃子館 — crème brûlée 🥟",
		Confidence: 0.75,
		Support:    3,
		Prov: Provenance{
			SourceURL: "welp.example/ビジネス/ぎょうざ",
			Operators: []string{"liste-extraktion", "συνταίριασμα"},
			Seq:       7,
		},
	})
	r.Add("ville", AttrValue{Value: "Köln", Confidence: 1})

	got, err := DecodeRecord(EncodeRecord(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != r.ID || got.Concept != r.Concept || got.Version != r.Version ||
		!reflect.DeepEqual(got.Attrs, r.Attrs) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", r, got)
	}

	op, fr, _, err := readFrameFrom(t, frameBytes(t, opDelete, r))
	if err != nil || op != opDelete {
		t.Fatalf("framed round trip: op=%d err=%v", op, err)
	}
	if fr.ID != r.ID || !reflect.DeepEqual(fr.Attrs, r.Attrs) {
		t.Fatal("framed round trip mismatch")
	}
}

// TestReadFrameValidCRCBadPayload: a frame whose CRC matches but whose
// payload does not decode is ErrCorrupt — real damage, not a torn tail.
func TestReadFrameValidCRCBadPayload(t *testing.T) {
	payload := []byte{opPut, 0xFF} // truncated uvarint for the ID length
	frame := framelog.Seal(append(framelog.NewFrame(len(payload)), payload...))
	if _, _, _, err := readFrameFrom(t, frame); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// TestScanValidFrame: a CRC-valid frame after a bad one makes the bad one
// mid-log corruption; garbage, or garbage before a torn frame, is a tail.
func TestScanValidFrame(t *testing.T) {
	frame := frameBytes(t, opPut, testRecord("id", "N", "C"))
	garbage := []byte{0x01, 0x02, 0x03, 0x04, 0x05}

	_, _, _, _, err := replayBytes(t, append(append([]byte(nil), garbage...), frame...))
	if want := fmt.Sprintf("valid frame at %d", len(garbage)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Errorf("garbage then frame: err = %v, want ErrCorrupt naming %q", err, want)
	}
	if _, _, _, rec, err := replayBytes(t, garbage); err != nil || !rec.TornTail {
		t.Errorf("garbage only: %+v, %v; want a torn tail", rec, err)
	}
	// A torn prefix of a frame must not count as valid.
	if _, _, _, rec, err := replayBytes(t, append(append([]byte(nil), garbage...), frame[:len(frame)-1]...)); err != nil || !rec.TornTail {
		t.Errorf("garbage then torn frame: %+v, %v; want a torn tail", rec, err)
	}
}

// allocBytes reports the bytes fn allocated on the heap.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRecordForgedCountAllocBounded: a 12-byte payload declaring 2^20
// values for one attribute is ErrCorrupt before anything is allocated for
// them. It used to reserve 80 MiB of AttrValues.
func TestDecodeRecordForgedCountAllocBounded(t *testing.T) {
	// id "", concept "", version 0, live, 1 attr: key "", nvals = 1<<20.
	payload := []byte{0, 0, 0, 0, 1, 0, 0x80, 0x80, 0x40, 0, 0, 0}
	var err error
	n := allocBytes(func() { _, err = DecodeRecord(payload) })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	if n >= 1<<20 {
		t.Errorf("DecodeRecord allocated %d bytes for a 12-byte payload, want < 1 MiB", n)
	}
}

// FuzzDecodeRecord: arbitrary payload bytes either fail to decode with
// ErrCorrupt or give a record whose encoding is a fixed point of
// EncodeRecord ∘ DecodeRecord. Seeded with the record payloads of a real
// WAL and snapshot.
func FuzzDecodeRecord(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, op := range crashScript {
		if op.del {
			err = s.Delete(op.id)
		} else {
			err = s.Put(testRecord(op.id, op.name, "C"))
		}
		if err != nil {
			f.Fatal(err)
		}
		if op.id == "c" {
			if err := s.Compact(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{snapName, logName} {
		_, err := framelog.Replay(framelog.OS{}, filepath.Join(dir, name), true, func(_ int64, p []byte) error {
			f.Add(append([]byte(nil), p[1:]...)) // the record, without the op byte
			return nil
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeRecord(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		enc := EncodeRecord(r)
		r2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded record: %v", err)
		}
		if enc2 := EncodeRecord(r2); !bytes.Equal(enc, enc2) {
			t.Fatalf("EncodeRecord∘DecodeRecord is not a fixed point:\n%x\n%x", enc, enc2)
		}
	})
}
