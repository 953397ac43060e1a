package lrec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordSetGet(t *testing.T) {
	r := NewRecord("r1", "restaurant").Set("name", "Gochi").Set("city", "Cupertino")
	if r.Get("name") != "Gochi" || r.Get("city") != "Cupertino" {
		t.Errorf("record = %s", r)
	}
	if r.Get("missing") != "" {
		t.Error("missing key should be empty")
	}
	if !r.Has("name") || r.Has("missing") {
		t.Error("Has wrong")
	}
}

func TestRecordAddMergesDuplicates(t *testing.T) {
	r := NewRecord("r1", "restaurant")
	r.Add("phone", AttrValue{Value: "408-555-0101", Confidence: 0.5})
	r.Add("phone", AttrValue{Value: "(408) 555 0101", Confidence: 0.9}) // same after normalization
	r.Add("phone", AttrValue{Value: "408-555-0202", Confidence: 0.7})
	if n := len(r.All("phone")); n != 2 {
		t.Fatalf("got %d phone values, want 2: %+v", n, r.All("phone"))
	}
	best, _ := r.Best("phone")
	if best.Confidence != 0.9 {
		t.Errorf("best = %+v", best)
	}
}

func TestRecordBestTieBreak(t *testing.T) {
	r := NewRecord("r1", "c")
	r.Add("k", AttrValue{Value: "zeta", Confidence: 0.5})
	r.Add("k", AttrValue{Value: "alpha", Confidence: 0.5})
	best, ok := r.Best("k")
	if !ok || best.Value != "alpha" {
		t.Errorf("best = %+v", best)
	}
}

func TestRecordConfidenceClamping(t *testing.T) {
	r := NewRecord("r1", "c")
	r.Add("a", AttrValue{Value: "x", Confidence: -3})
	r.Add("b", AttrValue{Value: "y", Confidence: 7})
	if v, _ := r.Best("a"); v.Confidence <= 0 || v.Confidence > 1 {
		t.Errorf("a conf = %f", v.Confidence)
	}
	if v, _ := r.Best("b"); v.Confidence != 1 {
		t.Errorf("b conf = %f", v.Confidence)
	}
}

func TestRecordConfidenceAggregate(t *testing.T) {
	r := NewRecord("r1", "c")
	if r.Confidence() != 0 {
		t.Error("empty record confidence should be 0")
	}
	r.Add("a", AttrValue{Value: "x", Confidence: 0.8})
	r.Add("b", AttrValue{Value: "y", Confidence: 0.4})
	if got := r.Confidence(); got < 0.59 || got > 0.61 {
		t.Errorf("confidence = %f", got)
	}
}

// TestRecordConfidenceDeterministic: the record-level confidence is one bit
// pattern however the attribute map iterates — summing in map order gave a
// 10-attribute record two different results over 2 000 calls — and it costs
// no allocation.
func TestRecordConfidenceDeterministic(t *testing.T) {
	r := NewRecord("r1", "c")
	for i, c := range []float64{0.1, 0.7, 0.33, 0.9, 0.05, 0.61, 0.2, 0.47, 0.999, 0.3} {
		r.Add(fmt.Sprintf("k%d", i), AttrValue{Value: "v", Confidence: c})
		r.Add(fmt.Sprintf("k%d", i), AttrValue{Value: "w", Confidence: c / 3})
	}
	first := math.Float64bits(r.Confidence())
	for i := 0; i < 1000; i++ {
		if got := math.Float64bits(r.Confidence()); got != first {
			t.Fatalf("call %d: Confidence bits %x, first call %x", i, got, first)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Confidence() }); allocs != 0 {
		t.Errorf("Confidence allocates %.0f times", allocs)
	}
}

func TestRecordClone(t *testing.T) {
	r := NewRecord("r1", "c")
	r.Add("k", AttrValue{Value: "v", Confidence: 1,
		Prov: Provenance{SourceURL: "u", Operators: []string{"op1"}}})
	c := r.Clone()
	c.Add("k", AttrValue{Value: "other", Confidence: 1})
	c.Attrs["k"][0].Prov.Operators[0] = "mutated"
	if len(r.All("k")) != 1 {
		t.Error("clone shares value slice")
	}
	if r.Attrs["k"][0].Prov.Operators[0] != "op1" {
		t.Error("clone shares operator slice")
	}
}

func TestRecordMerge(t *testing.T) {
	a := NewRecord("a", "restaurant").Set("name", "Gochi")
	b := NewRecord("b", "restaurant").Set("city", "Cupertino")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Get("city") != "Cupertino" || a.ID != "a" {
		t.Errorf("merged = %s", a)
	}
	c := NewRecord("c", "person")
	if err := a.Merge(c); !errors.Is(err, ErrConceptMismatch) {
		t.Errorf("err = %v", err)
	}
}

func TestRecordKeysSortedAndFlatText(t *testing.T) {
	r := NewRecord("r1", "c").Set("zeta", "1").Set("alpha", "2")
	if got := r.Keys(); !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Errorf("Keys = %v", got)
	}
	if got := r.FlatText(); got != "alpha 2 zeta 1" {
		t.Errorf("FlatText = %q", got)
	}
}

func TestProvenanceString(t *testing.T) {
	p := Provenance{SourceURL: "site/page", Operators: []string{"list", "match"}, Seq: 3}
	if got := p.String(); !strings.Contains(got, "list>match") || !strings.Contains(got, "@3") {
		t.Errorf("String = %q", got)
	}
	if got := (Provenance{SourceURL: "u"}).String(); !strings.Contains(got, "?") {
		t.Errorf("empty ops = %q", got)
	}
}

func TestRegistryRegisterAndEvolve(t *testing.T) {
	g := NewRegistry()
	g.Register(Concept{Name: "restaurant", Domain: "local",
		Attrs: []AttrSpec{{Key: "name", Kind: KindName}, {Key: "zip", Kind: KindZip, MaxValues: 1}}})
	// Re-register with a new attribute: additive evolution.
	g.Register(Concept{Name: "restaurant",
		Attrs: []AttrSpec{{Key: "menu", Kind: KindText}}})
	c, ok := g.Lookup("restaurant")
	if !ok {
		t.Fatal("lookup failed")
	}
	if len(c.Attrs) != 3 {
		t.Errorf("attrs = %v", c.AttrKeys())
	}
	if c.Domain != "local" {
		t.Errorf("domain = %q", c.Domain)
	}
	if _, ok := c.Spec("zip"); !ok {
		t.Error("zip spec missing")
	}
}

func TestRegistryDomains(t *testing.T) {
	g := NewRegistry()
	g.Register(Concept{Name: "restaurant", Domain: "local"})
	g.Register(Concept{Name: "review", Domain: "local"})
	g.Register(Concept{Name: "paper", Domain: "academic"})
	if got := g.Domain("local"); !reflect.DeepEqual(got, []string{"restaurant", "review"}) {
		t.Errorf("Domain(local) = %v", got)
	}
	if got := g.Domains(); !reflect.DeepEqual(got, []string{"academic", "local"}) {
		t.Errorf("Domains = %v", got)
	}
	if got := g.Names(); len(got) != 3 {
		t.Errorf("Names = %v", got)
	}
}

func TestRegistryValidate(t *testing.T) {
	g := NewRegistry()
	g.Register(Concept{Name: "restaurant", Domain: "local",
		Attrs: []AttrSpec{{Key: "name"}, {Key: "zip", MaxValues: 1}}})

	r := NewRecord("r1", "restaurant").Set("name", "Gochi")
	r.Set("surprise", "extra")
	unknown, err := g.Validate(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unknown, []string{"surprise"}) {
		t.Errorf("unknown = %v", unknown)
	}

	r2 := NewRecord("r2", "restaurant")
	r2.Add("zip", AttrValue{Value: "95054", Confidence: 1})
	r2.Add("zip", AttrValue{Value: "95014", Confidence: 1})
	if _, err := g.Validate(r2); err == nil {
		t.Error("multiplicity violation not caught")
	}

	if _, err := g.Validate(NewRecord("", "restaurant")); !errors.Is(err, ErrNoID) {
		t.Errorf("err = %v", err)
	}
	if _, err := g.Validate(NewRecord("x", "")); !errors.Is(err, ErrNoConcept) {
		t.Errorf("err = %v", err)
	}
	if _, err := g.Validate(NewRecord("x", "alien")); !errors.Is(err, ErrUnknownConcept) {
		t.Errorf("err = %v", err)
	}
}

func TestValueKindString(t *testing.T) {
	if KindZip.String() != "zip" || KindText.String() != "text" {
		t.Error("kind names wrong")
	}
	if got := ValueKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind = %q", got)
	}
}

// randomRecord builds a pseudo-random record for property tests.
func randomRecord(rng *rand.Rand) *Record {
	r := NewRecord(randStr(rng, 8), "concept"+randStr(rng, 2))
	nattrs := rng.Intn(5)
	for i := 0; i < nattrs; i++ {
		key := "k" + randStr(rng, 3)
		nvals := 1 + rng.Intn(3)
		for j := 0; j < nvals; j++ {
			r.Add(key, AttrValue{
				Value:      randStr(rng, 12),
				Confidence: rng.Float64(),
				Prov: Provenance{
					SourceURL: "http://" + randStr(rng, 6),
					Operators: []string{"op" + randStr(rng, 2)},
					Seq:       rng.Uint64() % 1000,
				},
			})
		}
	}
	return r
}

const alpha = "abcdefghijklmnopqrstuvwxyz0123456789 "

func randStr(rng *rand.Rand, n int) string {
	b := make([]byte, 1+rng.Intn(n))
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		r := randomRecord(rng)
		r.Version = rng.Uint64() % 1e6
		got, err := DecodeRecord(EncodeRecord(r))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normAttrs(r), normAttrs(got)) ||
			got.ID != r.ID || got.Concept != r.Concept || got.Version != r.Version {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", r, got)
		}
	}
}

// normAttrs nil-safes empty maps/slices for comparison.
func normAttrs(r *Record) map[string][]AttrValue {
	if len(r.Attrs) == 0 {
		return map[string][]AttrValue{}
	}
	return r.Attrs
}

func TestDecodeGarbage(t *testing.T) {
	f := func(b []byte) bool {
		// Must not panic; errors are fine.
		_, _ = DecodeRecord(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if _, err := DecodeRecord(nil); err == nil {
		t.Error("nil decode should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	r := NewRecord("id", "c").Set("key", "value with some length")
	enc := EncodeRecord(r)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeRecord(enc[:cut]); err == nil && cut < len(enc)-1 {
			// Some prefixes can decode to a valid shorter record only if
			// lengths happen to align; requiring error for all cuts would be
			// too strict, but it must never panic (reaching here is enough).
			_ = err
		}
	}
}

// Property: whatever values are Added, Best stays in (0,1], Keys stay
// sorted, Support stays positive, and Merge is idempotent.
func TestRecordInvariantsProperty(t *testing.T) {
	f := func(keys []string, vals []string, confs []float64) bool {
		r := NewRecord("id", "c")
		for i := range keys {
			if keys[i] == "" {
				continue
			}
			v, c := "v", 0.5
			if i < len(vals) {
				v = vals[i]
			}
			if i < len(confs) {
				c = confs[i]
			}
			r.Add(keys[i], AttrValue{Value: v, Confidence: c})
		}
		ks := r.Keys()
		for i := 1; i < len(ks); i++ {
			if ks[i-1] >= ks[i] {
				return false
			}
		}
		for _, k := range ks {
			best, ok := r.Best(k)
			if !ok || best.Confidence <= 0 || best.Confidence > 1 || best.Support <= 0 {
				return false
			}
		}
		// Merge idempotence: merging the same record twice equals once.
		a1 := NewRecord("a", "c")
		a1.Merge(r)
		once := fmt.Sprintf("%v", a1.Attrs)
		a1.Merge(r)
		// Support counts grow on re-merge (by design), so compare values
		// and keys only.
		a2 := NewRecord("a", "c")
		a2.Merge(r)
		if fmt.Sprintf("%v", a2.Keys()) != fmt.Sprintf("%v", a1.Keys()) {
			return false
		}
		for _, k := range a1.Keys() {
			if len(a1.All(k)) != len(a2.All(k)) {
				return false // re-merge must not create duplicate values
			}
		}
		_ = once
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
