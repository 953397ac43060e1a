//go:build !race

package lrec

import "testing"

// Not built under the race detector, whose instrumentation may allocate.

// TestRecordAddDuplicateAllocs: adding a value the record already holds, in
// another case and spacing, merges it without an allocation — the held
// values are compared with their normal form, not normalized.
func TestRecordAddDuplicateAllocs(t *testing.T) {
	r := &Record{}
	r.Add("name", AttrValue{Value: "Gochi  Japanese Fusion", Confidence: 0.6})
	r.Add("name", AttrValue{Value: "Gochi Tapas", Confidence: 0.5})
	r.Add("cuisine", AttrValue{Value: "Japanese", Confidence: 0.5})
	dup := AttrValue{Value: "gochi japanese fusion", Confidence: 0.7}
	if allocs := testing.AllocsPerRun(100, func() { r.Add("name", dup) }); allocs != 0 {
		t.Errorf("Record.Add of a duplicate value allocates %.0f times", allocs)
	}
	if vs := r.Attrs["name"]; len(vs) != 2 || vs[0].Value != "gochi japanese fusion" || vs[0].Confidence != 0.7 {
		t.Errorf("name values after the duplicates: %+v", vs)
	}
}
