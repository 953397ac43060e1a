package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// The prepared document and the merge that Prepare's grouping replaced,
// retained as the oracle: Prepare stopped at the token streams, and
// AddPrepared built a map from term to occurrence count per (document,
// field) under the index lock. No non-test code calls them.

type refPreparedField struct {
	Name  string
	Boost float64
	Toks  []string
}

type refPreparedDoc struct {
	ID     string
	Fields []refPreparedField
}

func refPrepare(doc Document) refPreparedDoc {
	pd := refPreparedDoc{ID: doc.ID, Fields: make([]refPreparedField, 0, len(doc.Fields))}
	for _, f := range doc.Fields {
		boost := f.Boost
		if boost <= 0 {
			boost = 1
		}
		pd.Fields = append(pd.Fields, refPreparedField{
			Name: f.Name, Boost: boost, Toks: tokenize(f.Text),
		})
	}
	return pd
}

func (ix *Index) refAddPrepared(doc refPreparedDoc) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if old, ok := ix.byExt[doc.ID]; ok {
		ix.tombstoneLocked(old)
	}
	n := len(ix.extIDs)
	ix.extIDs = append(ix.extIDs, doc.ID)
	ix.byExt[doc.ID] = n
	ix.docLens = append(ix.docLens, nil)
	ix.dead = append(ix.dead, false)
	for _, f := range doc.Fields {
		fn, ok := ix.fieldNum[f.Name]
		if !ok {
			fn = len(ix.fields)
			ix.fieldNum[f.Name] = fn
			ix.fields = append(ix.fields, fieldStats{name: f.Name, boost: f.Boost})
		}
		toks := f.Toks
		for len(ix.docLens[n]) <= fn {
			ix.docLens[n] = append(ix.docLens[n], 0)
		}
		ix.docLens[n][fn] += len(toks)
		ix.fields[fn].totalLen += len(toks)
		occ := make(map[string]int)
		for _, t := range toks {
			occ[t]++
		}
		for t, freq := range occ {
			ix.postings[t] = append(ix.postings[t], posting{doc: int32(n), field: int32(fn), freq: int32(freq)})
		}
	}
	ix.epoch.Add(1)
	ix.maybeCompactLocked()
}

// sameIndex compares everything two indexes hold: doc slots, tombstones,
// field statistics and every posting list, posting for posting.
func sameIndex(got, want *Index) error {
	got.mu.RLock()
	defer got.mu.RUnlock()
	want.mu.RLock()
	defer want.mu.RUnlock()
	if !reflect.DeepEqual(got.extIDs, want.extIDs) || !reflect.DeepEqual(got.byExt, want.byExt) {
		return fmt.Errorf("doc slots differ: %d and %d", len(got.extIDs), len(want.extIDs))
	}
	if !reflect.DeepEqual(got.dead, want.dead) || got.ndead != want.ndead {
		return fmt.Errorf("tombstones differ: %d and %d", got.ndead, want.ndead)
	}
	if !reflect.DeepEqual(got.fields, want.fields) || !reflect.DeepEqual(got.fieldNum, want.fieldNum) {
		return fmt.Errorf("fields differ: %+v and %+v", got.fields, want.fields)
	}
	for n := range want.docLens {
		// nil and empty are the same field lengths.
		if len(got.docLens[n]) != len(want.docLens[n]) ||
			(len(want.docLens[n]) > 0 && !reflect.DeepEqual(got.docLens[n], want.docLens[n])) {
			return fmt.Errorf("doc slot %d: lengths %v, want %v", n, got.docLens[n], want.docLens[n])
		}
	}
	if len(got.postings) != len(want.postings) {
		return fmt.Errorf("%d terms, want %d", len(got.postings), len(want.postings))
	}
	for term, wps := range want.postings {
		gps := got.postings[term]
		if len(gps) != len(wps) {
			return fmt.Errorf("term %q: %d postings, want %d", term, len(gps), len(wps))
		}
		for i := range wps {
			g, w := gps[i], wps[i]
			if g != w {
				return fmt.Errorf("term %q posting %d: %+v, want %+v", term, i, g, w)
			}
		}
	}
	return nil
}

// mergeVocab mixes plain, inflected, capitalized, apostrophized and multibyte
// words, so fields take the tokenizer's zero-copy, rewriting and Unicode paths
// and the stemmer folds distinct surface forms into one term.
var mergeVocab = strings.Fields(`pizza pizzas Pizza sushi 寿司 café cafés naïve straße Ünal
	running runs walked tables birk's Birk's menu 2009 95014 cupertino San Jose
	golden dragon garden открыто ресторан`)

// mergeDoc draws a document of zero to four fields: names repeat within a
// document, and a field may be empty or hold separators only.
func mergeDoc(rng *rand.Rand, id string) Document {
	names := []string{"title", "body", "tags"}
	d := Document{ID: id}
	for f, nf := 0, rng.Intn(5); f < nf; f++ {
		var text string
		switch rng.Intn(6) {
		case 0:
		case 1:
			text = " -- ,, '' \t"
		default:
			words := make([]string, 1+rng.Intn(40))
			for i := range words {
				u := rng.Float64()
				words[i] = mergeVocab[int(u*u*float64(len(mergeVocab)))]
			}
			text = strings.Join(words, []string{" ", ", ", " - "}[rng.Intn(3)])
		}
		d.Fields = append(d.Fields, Field{
			Name: names[rng.Intn(len(names))], Text: text, Boost: float64(rng.Intn(4)),
		})
	}
	return d
}

// TestPreparedMergeMatchesReference drives the same seeded schedule of adds,
// re-adds, removes and compactions (forced, and automatic past the tombstone
// threshold) into an index filled by Prepare + AddPrepared and into one filled
// by the retained token-stream merge, and requires both to hold the same
// slots, statistics and posting lists, and ranked retrieval to answer alike.
func TestPreparedMergeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed*1000 + 1))
		got, want := New(), New()
		add := func(d Document) {
			got.AddPrepared(Prepare(d))
			want.refAddPrepared(refPrepare(d))
		}
		remove := func(id string) {
			got.Remove(id)
			want.Remove(id)
		}
		check := func(when string) {
			t.Helper()
			if err := sameIndex(got, want); err != nil {
				t.Fatalf("seed=%d %s: %v", seed, when, err)
			}
			checkAdjacent(t, got, when)
			for i := 0; i < 40; i++ {
				words := make([]string, 1+rng.Intn(3))
				for j := range words {
					words[j] = mergeVocab[rng.Intn(len(mergeVocab))]
				}
				q := strings.Join(words, " ")
				if err := sameResults(got.Search(q, 10), want.refSearch(q, 10)); err != nil {
					t.Fatalf("seed=%d %s: Search(%q): %v", seed, when, q, err)
				}
			}
		}

		const n = 300
		id := func(i int) string { return fmt.Sprintf("doc-%03d", i) }
		check("empty")
		for i := 0; i < n; i++ {
			add(mergeDoc(rng, id(i)))
		}
		check("after adds")
		for i := 0; i < 50; i++ {
			add(mergeDoc(rng, id(rng.Intn(n))))
		}
		check("after re-adds")
		for i := 0; i < 40; i++ {
			remove(id(rng.Intn(n)))
		}
		if got.Tombstones() == 0 {
			t.Fatal("the schedule left no tombstones")
		}
		check("after removes")
		got.CompactTombstones()
		want.CompactTombstones()
		if got.Tombstones() != 0 {
			t.Fatal("forced compaction left tombstones")
		}
		check("after forced compaction")
		// A long re-add and remove phase: the index crosses the
		// automatic compaction threshold at least once.
		compacted := false
		for i := 0; i < 6*n; i++ {
			before := got.Tombstones()
			if rng.Intn(5) == 0 {
				remove(id(rng.Intn(n)))
			} else {
				add(mergeDoc(rng, id(rng.Intn(n))))
			}
			compacted = compacted || got.Tombstones() < before
		}
		if !compacted {
			t.Fatal("the schedule never compacted on its own")
		}
		check("after automatic compaction")
	}
}

// checkPrepared holds one prepared field against the reference occurrence
// map of its token stream: each term's frequency is its number of
// occurrences, and terms are listed in first-occurrence order.
func checkPrepared(t *testing.T, pf PreparedField, toks []string) {
	t.Helper()
	occ := make(map[string][]int)
	for i, tok := range toks {
		occ[tok] = append(occ[tok], i)
	}
	if pf.Len != len(toks) || len(pf.Terms) != len(occ) {
		t.Fatalf("field %q: %d tokens in %d terms, want %d in %d", pf.Name, pf.Len, len(pf.Terms), len(toks), len(occ))
	}
	total, last := 0, -1
	for _, pt := range pf.Terms {
		positions := occ[pt.Term]
		if pt.Freq != len(positions) || pt.Freq == 0 {
			t.Fatalf("field %q term %q: frequency %d, want %d", pf.Name, pt.Term, pt.Freq, len(positions))
		}
		if positions[0] <= last {
			t.Fatalf("field %q term %q: first occurs at %d, after a later-listed term's %d", pf.Name, pt.Term, positions[0], last)
		}
		last = positions[0]
		total += pt.Freq
		delete(occ, pt.Term) // a term listed twice fails the lookup above
	}
	if total != len(toks) {
		t.Fatalf("field %q: frequencies sum to %d over %d tokens", pf.Name, total, len(toks))
	}
}

// FuzzPrepare feeds arbitrary field texts, valid UTF-8 or not, to Prepare:
// each field's term frequencies must equal the reference occurrence map of
// its token stream, in first-occurrence order, summing to the token count,
// and the two fields must not see each other's terms.
func FuzzPrepare(f *testing.F) {
	f.Add("Pizza pizzas, pizza!", "the running café — 寿司 寿司")
	f.Add("", " -- '' ")
	f.Add("birk's Birk's BIRKS", "\xff\xfe broken \xc3 utf8 \xe5\xaf")
	f.Add(strings.Repeat("a b a ", 50), strings.Repeat("straße ", 9))
	f.Fuzz(func(t *testing.T, title, body string) {
		doc := Document{ID: "d", Fields: []Field{
			{Name: "title", Text: title, Boost: 2.5},
			{Name: "body", Text: body},
			{Name: "title", Text: body + " " + title},
		}}
		pd := Prepare(doc)
		if pd.ID != doc.ID || len(pd.Fields) != len(doc.Fields) {
			t.Fatalf("prepared %q with %d fields", pd.ID, len(pd.Fields))
		}
		for i, f := range doc.Fields {
			if pd.Fields[i].Name != f.Name {
				t.Fatalf("field %d is %q, want %q", i, pd.Fields[i].Name, f.Name)
			}
			checkPrepared(t, pd.Fields[i], tokenize(f.Text))
		}
		// What Prepare yields must also index: the merge into a fresh index
		// and into the reference leave the same state.
		got, want := New(), New()
		got.AddPrepared(pd)
		want.refAddPrepared(refPrepare(doc))
		if err := sameIndex(got, want); err != nil {
			t.Fatalf("valid utf8 %v/%v: %v", utf8.ValidString(title), utf8.ValidString(body), err)
		}
	})
}
