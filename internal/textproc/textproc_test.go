package textproc

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"Birk's Steakhouse", []string{"birks", "steakhouse"}},
		{"95054-1234", []string{"95054", "1234"}},
		{"", nil},
		{"   ", nil},
		{"café MÜNCHEN", []string{"café", "münchen"}},
		{"a-b_c", []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	if got := Normalize("  Gochi   Fusion-Tapas! "); got != "gochi fusion tapas" {
		t.Errorf("Normalize = %q", got)
	}
	if got := NormalizeKey("Gochi Fusion Tapas"); got != "gochifusiontapas" {
		t.Errorf("NormalizeKey = %q", got)
	}
}

func TestRemoveStopwords(t *testing.T) {
	got := RemoveStopwords([]string{"the", "best", "salsa", "in", "chicago"})
	want := []string{"best", "salsa", "chicago"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v", got)
	}
}

func TestCharNGrams(t *testing.T) {
	grams := CharNGrams("ab", 3)
	want := []string{"^ab", "ab$"}
	if !reflect.DeepEqual(grams, want) {
		t.Errorf("grams = %v, want %v", grams, want)
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"restaurants": "restaurant",
		"ratings":     "rating",
		"reviewed":    "review",
		"cities":      "city",
		"glasses":     "glass",
		"bus":         "bus",
		"class":       "class",
		"booking":     "book",
		"stopped":     "stop",
		"grilling":    "grill",
		"menu":        "menu",
		"is":          "is",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestJaroWinkler(t *testing.T) {
	if got := JaroWinkler("martha", "marhta"); math.Abs(got-0.9611) > 0.001 {
		t.Errorf("JW(martha,marhta) = %f", got)
	}
	if got := JaroWinkler("abc", "abc"); got != 1 {
		t.Errorf("identical = %f", got)
	}
	if got := JaroWinkler("abc", "xyz"); got != 0 {
		t.Errorf("disjoint = %f", got)
	}
	// Winkler boost: shared prefix scores at least the plain Jaro.
	if JaroWinkler("prefix", "prefax") < Jaro("prefix", "prefax") {
		t.Error("prefix boost missing")
	}
}

func TestSimilarityRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		for _, s := range []float64{
			Jaro(a, b), JaroWinkler(a, b), TrigramSim(a, b),
		} {
			if s < 0 || s > 1.0000001 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestJaccard(t *testing.T) {
	a := TokenSet([]string{"a", "b", "c"})
	b := TokenSet([]string{"b", "c", "d"})
	if got := Jaccard(a, b); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Jaccard = %f", got)
	}
	if got := Jaccard(nil, nil); got != 1 {
		t.Errorf("empty Jaccard = %f", got)
	}
}

func TestTrigramSimRobustToSmallEdits(t *testing.T) {
	hi := TrigramSim("blue agave grill", "blue agave grille")
	lo := TrigramSim("blue agave grill", "red lantern noodles")
	if hi < 0.75 || lo > 0.3 || hi <= lo {
		t.Errorf("hi=%f lo=%f", hi, lo)
	}
}

func TestCosine(t *testing.T) {
	a := Vector{"x": 1, "y": 1}
	b := Vector{"x": 1, "y": 1}
	if got := Cosine(a, b); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical cosine = %f", got)
	}
	c := Vector{"z": 5}
	if got := Cosine(a, c); got != 0 {
		t.Errorf("orthogonal cosine = %f", got)
	}
	if got := Cosine(nil, a); got != 0 {
		t.Errorf("empty cosine = %f", got)
	}
}

func TestCorpusTFIDF(t *testing.T) {
	c := NewCorpus()
	c.Add([]string{"pizza", "pasta", "menu"})
	c.Add([]string{"pizza", "burger", "menu"})
	c.Add([]string{"sushi", "menu"})
	// "menu" appears everywhere → low IDF; "sushi" is rare → high IDF.
	if c.IDF("menu") >= c.IDF("sushi") {
		t.Errorf("IDF(menu)=%f should be < IDF(sushi)=%f", c.IDF("menu"), c.IDF("sushi"))
	}
	v := c.Vectorize([]string{"sushi", "menu"})
	if v["sushi"] <= 0 || v["menu"] <= 0 {
		t.Errorf("weights = %v", v)
	}
	top := TopTerms(v, 1)
	if len(top) != 1 || top[0] != "sushi" {
		t.Errorf("top = %v", top)
	}
}

func TestTopTermsDeterministic(t *testing.T) {
	v := Vector{"b": 1, "a": 1, "c": 2}
	if got := TopTerms(v, 3); !reflect.DeepEqual(got, []string{"c", "a", "b"}) {
		t.Errorf("TopTerms = %v", got)
	}
	if got := TopTerms(v, 10); len(got) != 3 {
		t.Errorf("overlong n: %v", got)
	}
}

func TestStemAllAndTokenSet(t *testing.T) {
	toks := StemAll(Tokenize("Reviews of restaurants"))
	joined := strings.Join(toks, " ")
	if joined != "review of restaurant" {
		t.Errorf("StemAll = %q", joined)
	}
	set := TokenSet([]string{"a", "a", "b"})
	if len(set) != 2 || !set["a"] || !set["b"] {
		t.Errorf("TokenSet = %v", set)
	}
}
