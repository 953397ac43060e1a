package lrec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"conceptweb/internal/textproc"
)

// The attribute-index model: a script of store operations decoded from
// bytes, and after every operation a brute-force filter over Scan that
// ViewByAttr, ByAttr, ByConcept and CountByConcept must equal. A handful of
// IDs makes re-puts and deletes of live records common; the value pool has
// several spellings of one normalized value, so a record can hold one key
// twice and one key can be held by many records.

var (
	attrIDs      = []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	attrConcepts = []string{"restaurant", "hotel"}
	attrKeys     = []string{"city", "phone", "name"}
	attrValues   = []string{
		"Cupertino", "cupertino", "CUPERTINO.",
		"San Jose", "san-jose",
		"408-555-0101", "(408) 555 0101",
		"Gochi", "Birk's", "...",
	}
)

// scriptReader hands out a script's bytes one at a time, zero once spent.
type scriptReader []byte

func (r *scriptReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return int(c)
}

// runAttrScript applies script to a durable store, checking the secondary
// indexes against Scan after every operation.
func runAttrScript(t *testing.T, script []byte) {
	t.Helper()
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	defer func() { s.Close() }()
	r := scriptReader(script)
	for step := 0; len(r) > 0; step++ {
		var op string
		switch r.next() % 8 {
		case 0, 1, 2, 3:
			rec := NewRecord(attrIDs[r.next()%len(attrIDs)], attrConcepts[r.next()%len(attrConcepts)])
			mask := r.next()
			for i, k := range attrKeys {
				if mask>>i&1 == 0 {
					continue
				}
				// Appended directly, not through Add, so one key may hold
				// two values that normalize equal.
				for n := r.next()%3 + 1; n > 0; n-- {
					rec.Attrs[k] = append(rec.Attrs[k], AttrValue{Value: attrValues[r.next()%len(attrValues)], Confidence: 1})
				}
			}
			op = fmt.Sprintf("put %s %s %v", rec.ID, rec.Concept, rec.Attrs)
			if err := s.Put(rec); err != nil {
				t.Fatalf("step %d: %s: %v", step, op, err)
			}
		case 4, 5:
			id := attrIDs[r.next()%len(attrIDs)]
			op = "delete " + id
			if err := s.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: %s: %v", step, op, err)
			}
		case 6:
			op = "compact"
			if err := s.Compact(); err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
		case 7:
			op = "reopen"
			if err := s.Close(); err != nil {
				t.Fatalf("step %d: close: %v", step, err)
			}
			s = open()
		}
		if err := checkAttrIndex(s); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
	}
}

// checkAttrIndex compares the store's indexed reads with a filter over Scan.
func checkAttrIndex(s *Store) error {
	var recs []*Record
	s.Scan(func(r *Record) bool {
		recs = append(recs, r)
		return true
	})
	stamps := func(rs []*Record) []string {
		out := []string{}
		for _, r := range rs {
			out = append(out, fmt.Sprintf("%s@%d", r.ID, r.Version))
		}
		return out
	}
	filter := func(keep func(*Record) bool) []string {
		var out []*Record
		for _, r := range recs {
			if keep(r) {
				out = append(out, r)
			}
		}
		return stamps(out)
	}
	// The index holds exactly the keys the records hold: a key goes with
	// its last ID.
	keys := map[string]bool{}
	for _, r := range recs {
		for k, vals := range r.Attrs {
			for _, v := range vals {
				keys[attrKey(r.Concept, k, textproc.Normalize(v.Value))] = true
			}
		}
	}
	s.mu.RLock()
	got := len(s.byAttr)
	s.mu.RUnlock()
	if got != len(keys) {
		return fmt.Errorf("the store indexes %d attribute keys, its records hold %d", got, len(keys))
	}
	for _, c := range attrConcepts {
		want := filter(func(r *Record) bool { return r.Concept == c })
		if got := stamps(s.ByConcept(c)); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("ByConcept(%s) = %v, scan has %v", c, got, want)
		}
		if got := s.CountByConcept(c); got != len(want) {
			return fmt.Errorf("CountByConcept(%s) = %d, scan has %d", c, got, len(want))
		}
		for _, k := range attrKeys {
			for _, v := range attrValues {
				norm := textproc.Normalize(v)
				want := filter(func(r *Record) bool {
					if r.Concept != c {
						return false
					}
					for _, av := range r.Attrs[k] {
						if textproc.Normalize(av.Value) == norm {
							return true
						}
					}
					return false
				})
				if got := stamps(s.ViewByAttr(c, k, v)); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("ViewByAttr(%s, %s, %q) = %v, scan has %v", c, k, v, got, want)
				}
				if got := stamps(s.ByAttr(c, k, v)); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("ByAttr(%s, %s, %q) = %v, scan has %v", c, k, v, got, want)
				}
			}
		}
	}
	return nil
}

func randomScript(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestAttrIndexMatchesScan runs seeded random operation scripts (seeds 1-3
// and 41). The store is one partition: the subtests keep the name shards=1.
func TestAttrIndexMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 41} {
		t.Run(fmt.Sprintf("shards=1/seed=%d", seed), func(t *testing.T) {
			runAttrScript(t, randomScript(seed, 600))
		})
	}
}

// FuzzAttrIndex decodes arbitrary bytes into the same operation script.
func FuzzAttrIndex(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(randomScript(seed, 200))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		runAttrScript(t, script)
	})
}
