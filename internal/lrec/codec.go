package lrec

import (
	"encoding/binary"
	"fmt"
	"math"

	"conceptweb/internal/framelog"
)

// Binary codec for records. The store's log and snapshot files are
// framelog logs (frame format, replay and torn-tail repair live there);
// each frame's payload is one encoded record operation:
//
//	payload := op(u8) record
//	record := id concept version(uvarint) deleted(u8) nattrs(uvarint)
//	          { key nvals(uvarint) { value conf(f64) prov } * } *
//	prov   := sourceURL seq(uvarint) nops(uvarint) { op } *
//	string := len(uvarint) bytes

// Operation codes in log frames.
const (
	opPut    = 1
	opDelete = 2
	// opSeq persists the store's logical clock without touching any record.
	// Compact writes one as the snapshot's first frame: the snapshot holds
	// only live records, so if the newest mutation was a Delete its
	// tombstone (and version) would otherwise vanish and a reopened store
	// would reuse version numbers. The carried Record has only Version set.
	opSeq = 3
)

// ErrCorrupt reports damage that is not a torn tail: mid-log corruption, a
// damaged snapshot, or a payload that does not decode.
var ErrCorrupt = framelog.ErrCorrupt

type encoder struct {
	buf []byte
}

func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) f64(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

func (e *encoder) u8(b byte) {
	e.buf = append(e.buf, b)
}

func (e *encoder) record(r *Record) {
	e.str(r.ID)
	e.str(r.Concept)
	e.uvarint(r.Version)
	if r.Deleted {
		e.u8(1)
	} else {
		e.u8(0)
	}
	keys := r.Keys()
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		vals := r.Attrs[k]
		e.uvarint(uint64(len(vals)))
		for _, v := range vals {
			e.str(v.Value)
			e.f64(v.Confidence)
			e.uvarint(uint64(v.Support))
			e.str(v.Prov.SourceURL)
			e.uvarint(v.Prov.Seq)
			e.uvarint(uint64(len(v.Prov.Operators)))
			for _, op := range v.Prov.Operators {
				e.str(op)
			}
		}
	}
}

type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint at %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.fail("string length %d exceeds buffer", n)
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.buf) {
		d.fail("short f64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return v
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail("short u8")
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

// count reads a collection size. Every entry takes at least one byte, so a
// count above the bytes left is corrupt — refused before anything is
// allocated for it.
func (d *decoder) count(what string) uint64 {
	n := d.uvarint()
	if left := uint64(len(d.buf) - d.pos); n > left {
		d.fail("%s count %d exceeds the %d bytes left", what, n, left)
		return 0
	}
	return n
}

func (d *decoder) record() *Record {
	r := &Record{
		ID:      d.str(),
		Concept: d.str(),
		Version: d.uvarint(),
		Deleted: d.u8() == 1,
		Attrs:   make(map[string][]AttrValue),
	}
	nattrs := d.count("attr")
	for i := uint64(0); i < nattrs && d.err == nil; i++ {
		k := d.str()
		nvals := d.count("value")
		vals := make([]AttrValue, 0, nvals)
		for j := uint64(0); j < nvals && d.err == nil; j++ {
			var v AttrValue
			v.Value = d.str()
			v.Confidence = d.f64()
			v.Support = int(d.uvarint())
			v.Prov.SourceURL = d.str()
			v.Prov.Seq = d.uvarint()
			nops := d.count("op")
			for o := uint64(0); o < nops && d.err == nil; o++ {
				v.Prov.Operators = append(v.Prov.Operators, d.str())
			}
			vals = append(vals, v)
		}
		r.Attrs[k] = vals
	}
	return r
}

// EncodeRecord serializes r (without framing); DecodeRecord inverts it.
func EncodeRecord(r *Record) []byte {
	var e encoder
	e.record(r)
	return e.buf
}

// DecodeRecord deserializes a record encoded by EncodeRecord.
func DecodeRecord(b []byte) (*Record, error) {
	d := decoder{buf: b}
	r := d.record()
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// encodeOp returns one logged operation as a sealed frame, appended with a
// single Write.
func encodeOp(op byte, r *Record) []byte {
	e := encoder{buf: framelog.NewFrame(256)}
	e.u8(op)
	e.record(r)
	return framelog.Seal(e.buf)
}

// decodeOp inverts encodeOp's payload.
func decodeOp(payload []byte) (byte, *Record, error) {
	d := decoder{buf: payload}
	op := d.u8()
	r := d.record()
	if d.err != nil {
		return 0, nil, d.err
	}
	return op, r, nil
}
