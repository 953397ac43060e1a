package extract

import (
	"testing"

	"conceptweb/internal/lrec"
)

func TestZipRecognizer(t *testing.T) {
	r := ZipRecognizer()
	if v, ok := r.Match("located at 123 Main St, San Jose, CA 95112 today"); !ok || v != "95112" {
		t.Errorf("zip = %q, %v", v, ok)
	}
	if _, ok := r.Match("call 1234 for info"); ok {
		t.Error("matched non-zip")
	}
	if _, ok := r.Match("item 123456 in stock"); ok {
		t.Error("matched 6-digit number")
	}
}

func TestPhoneRecognizer(t *testing.T) {
	r := PhoneRecognizer()
	for _, s := range []string{"408-555-0123", "(408) 555-0123", "408.555.0123", "408 555 0123"} {
		if v, ok := r.Match("call " + s + " now"); !ok || v == "" {
			t.Errorf("missed phone %q (got %q)", s, v)
		}
	}
	if _, ok := r.Match("the year 2009-06-29 was"); ok {
		t.Error("matched a date as phone")
	}
	if _, ok := r.Match("123-456-7890"); ok {
		t.Error("matched invalid area code starting with 1")
	}
}

func TestPriceAndStreet(t *testing.T) {
	if v, ok := PriceRecognizer().Match("only $12.95 per plate"); !ok || v != "$12.95" {
		t.Errorf("price = %q", v)
	}
	if v, ok := PriceRecognizer().Match("only $12 per plate"); !ok || v != "$12" {
		t.Errorf("int price = %q", v)
	}
	if v, ok := StreetRecognizer().Match("visit 1234 Stevens Creek Blvd today"); !ok || v == "" {
		t.Errorf("street = %q", v)
	}
	if _, ok := StreetRecognizer().Match("no address here"); ok {
		t.Error("street false positive")
	}
}

func TestYearDateRating(t *testing.T) {
	if v, ok := YearRecognizer().Match("published in 2007."); !ok || v != "2007" {
		t.Errorf("year = %q", v)
	}
	if _, ok := YearRecognizer().Match("room 1234"); ok {
		t.Error("year false positive")
	}
	if v, ok := DateRecognizer().Match("on 2009-06-29 we met"); !ok || v != "2009-06-29" {
		t.Errorf("date = %q", v)
	}
	if v, ok := RatingRecognizer().Match("earned 4.2 stars overall"); !ok || v != "4.2" {
		t.Errorf("rating = %q", v)
	}
}

func TestHoursAndMegapixels(t *testing.T) {
	if v, ok := HoursRecognizer().Match("Open Mon-Sun 11:00-22:00"); !ok || v == "" {
		t.Errorf("hours = %q", v)
	}
	if v, ok := MegapixelRecognizer().Match("shoots 24 megapixel images"); !ok || v != "24" {
		t.Errorf("mp = %q", v)
	}
}

func TestGazetteerRecognizer(t *testing.T) {
	g := GazetteerRecognizer("city", lrec.KindCity, []string{"San Jose", "Cupertino", "Jose"}, 0.7)
	if v, ok := g.Match("great food in san jose tonight"); !ok || v != "San Jose" {
		t.Errorf("gaz = %q (longest match should win)", v)
	}
	if v, ok := g.Match("CUPERTINO location"); !ok || v != "Cupertino" {
		t.Errorf("case-blind match = %q", v)
	}
	if _, ok := g.Match("san francisco"); ok {
		t.Error("gazetteer false positive")
	}
	// Token boundaries: "sanjose" must not match "San Jose"... but it does
	// match entry "Jose"? No: normalized "sanjose" is one token.
	if _, ok := g.Match("sanjoseans"); ok {
		t.Error("substring false positive")
	}
}

func TestDomainConstructors(t *testing.T) {
	d := RestaurantDomain([]string{"San Jose"}, []string{"italian"})
	if d.Concept != "restaurant" || len(d.Recognizers) < 5 {
		t.Errorf("restaurant domain = %+v", d)
	}
	if recognizerFor(&d, "zip") == nil {
		t.Error("zip recognizer missing")
	}
	if recognizerFor(&d, "nope") != nil {
		t.Error("bogus recognizer found")
	}
	for _, dom := range []Domain{MenuDomain(), PublicationDomain([]string{"PODS"}), ProductDomain()} {
		if dom.Concept == "" || len(dom.Evidence) == 0 {
			t.Errorf("bad domain %+v", dom)
		}
	}
}

func TestCountDistinct(t *testing.T) {
	r := ZipRecognizer()
	if n := refCountDistinct(r, "zips 95014 and 95112 and 95014 again"); n != 2 {
		t.Errorf("distinct = %d", n)
	}
	if n := refCountDistinct(r, "no zips here"); n != 0 {
		t.Errorf("distinct = %d", n)
	}
}
