package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"conceptweb/internal/extract"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// reviewsOf lists the stored review records as "id about | text | source",
// sorted by ID.
func reviewsOf(woc *WebOfConcepts) []string {
	var out []string
	for _, r := range woc.Records.ByConcept("review") {
		out = append(out, fmt.Sprintf("%s %s | %s | %s", r.ID, r.Get("about"), r.Get("text"), r.Get("source")))
	}
	sort.Strings(out)
	return out
}

// requireLinkMemoCurrent fails unless every entry of the link-feature memo
// answers for the bytes the page store holds now: stored under the page's
// current hash, with the features a fresh parse gives.
func requireLinkMemoCurrent(t *testing.T, label string, woc *WebOfConcepts) {
	t.Helper()
	if woc.links == nil {
		t.Fatalf("%s: no link-feature memo", label)
	}
	for u, f := range woc.links {
		h, ok := woc.Pages.Hash(u)
		if !ok || h != f.hash {
			t.Fatalf("%s: memo entry for %s is stale (hash %x, store %x, stored %v)", label, u, f.hash, h, ok)
		}
		p, err := woc.Pages.Get(u)
		if err != nil {
			t.Fatalf("%s: memo holds unreadable %s: %v", label, u, err)
		}
		if want := newLinkFeatures(p, true); !reflect.DeepEqual(f, want) {
			t.Fatalf("%s: memo entry for %s differs from a re-parse", label, u)
		}
	}
}

// relinkTwin is a pair of systems built alike that see the same web: a
// keeps its link-feature memo across passes, b has its memo cleared before
// every pass, so b's relink re-reads and re-parses every page it scores.
type relinkTwin struct {
	ab, bb *Builder
	a, b   *WebOfConcepts
	// parsedA and parsedB sum the page-store parses of each system's passes.
	parsedA, parsedB uint64
}

// pass refreshes urls on both systems and fails unless they agree on the
// pass's relink count, the review records, the association maps and the
// store's content; a's memo must answer for the store's current bytes.
func (tw *relinkTwin) pass(t *testing.T, label string, urls []string) {
	t.Helper()
	before := tw.a.Pages.Stats().Parses
	sa, err := tw.ab.Refresh(tw.a, urls)
	if err != nil {
		t.Fatal(err)
	}
	tw.parsedA += tw.a.Pages.Stats().Parses - before
	clear(tw.b.links)
	before = tw.b.Pages.Stats().Parses
	sb, err := tw.bb.Refresh(tw.b, urls)
	if err != nil {
		t.Fatal(err)
	}
	tw.parsedB += tw.b.Pages.Stats().Parses - before
	if sa.PagesRelinked != sb.PagesRelinked {
		t.Errorf("%s: relinked %d pages with the memo, %d with it cleared", label, sa.PagesRelinked, sb.PagesRelinked)
	}
	if ra, rb := reviewsOf(tw.a), reviewsOf(tw.b); !reflect.DeepEqual(ra, rb) {
		t.Errorf("%s: reviews diverge:\n memo:    %q\n cleared: %q", label, ra, rb)
	}
	if da, db := assocDigest(tw.a.Assoc), assocDigest(tw.b.Assoc); da != db {
		t.Errorf("%s: Assoc digest %s with the memo, %s with it cleared", label, da, db)
	}
	if da, db := assocDigest(tw.a.RevAssoc), assocDigest(tw.b.RevAssoc); da != db {
		t.Errorf("%s: RevAssoc digest %s with the memo, %s with it cleared", label, da, db)
	}
	if fa, fb := contentFingerprint(tw.a), contentFingerprint(tw.b); fa != fb {
		t.Errorf("%s: store fingerprint diverges between the memo and its clearing", label)
	}
	requireLinkMemoCurrent(t, label, tw.a)
	if t.Failed() {
		t.FailNow()
	}
}

// TestRelinkMemoMatchesReparse: the relink stage scored from the
// link-feature memo gives exactly what it gives re-parsing every page it
// scores — the same reviews, association maps and store content after every
// pass of the scripted and of a seeded random churn schedule — while the
// memo always answers for the bytes the page store holds, and the memo pays
// fewer parses. A page edited so that its review snippet must change gets
// the new snippet.
func TestRelinkMemoMatchesReparse(t *testing.T) {
	t.Run("scripted", func(t *testing.T) {
		w := smallWorld()
		reg := lrec.NewRegistry()
		webgen.RegisterConcepts(reg)
		mf := newMutableFetcher(w)
		cfg := StandardConfig(reg, w.Cities(), webgen.Cuisines())
		var tw relinkTwin
		tw.ab, tw.bb = &Builder{Fetcher: mf, Cfg: cfg}, &Builder{Fetcher: mf, Cfg: cfg}
		var err error
		if tw.a, _, err = tw.ab.Build(w.SeedURLs()); err != nil {
			t.Fatal(err)
		}
		defer tw.a.Close()
		if tw.b, _, err = tw.bb.Build(w.SeedURLs()); err != nil {
			t.Fatal(err)
		}
		defer tw.b.Close()
		requireLinkMemoCurrent(t, "after Build", tw.a)
		if len(tw.a.links) == 0 {
			t.Fatal("Build kept no link features")
		}
		for i, pass := range scriptedChurn(t, w, tw.a) {
			pass.apply(mf)
			tw.pass(t, fmt.Sprintf("pass %d", i+1), pass.urls)
		}
		if tw.parsedA >= tw.parsedB {
			t.Errorf("the memo saved no parse: %d with it, %d with it cleared", tw.parsedA, tw.parsedB)
		}
		t.Logf("%d parses with the memo, %d with it cleared", tw.parsedA, tw.parsedB)
	})

	t.Run("random", func(t *testing.T) {
		w, corpus, _ := heavyTailCorpus(t)
		reg := lrec.NewRegistry()
		webgen.RegisterScaleConcepts(reg)
		cfg := ScaleConfig(reg, w.Cities(), webgen.Cuisines())
		mf := newMutableFetcher(corpus)
		var tw relinkTwin
		tw.ab, tw.bb = &Builder{Fetcher: mf, Cfg: cfg}, &Builder{Fetcher: mf, Cfg: cfg}
		var err error
		if tw.a, _, err = tw.ab.Build(w.SeedURLs()); err != nil {
			t.Fatal(err)
		}
		defer tw.a.Close()
		if tw.b, _, err = tw.bb.Build(w.SeedURLs()); err != nil {
			t.Fatal(err)
		}
		defer tw.b.Close()
		const seed = 2
		passes := randomChurn(seed, tw.a.Pages.URLs(), attributablePages(tw.ab, tw.a),
			func(u string) string { return corpus[u] }, 6)
		for i, pass := range passes {
			mf.mu.Lock()
			mf.overlay, mf.gone = pass.overlay, pass.gone
			mf.mu.Unlock()
			tw.pass(t, fmt.Sprintf("seed %d pass %d %v", seed, i, pass.what), pass.urls)
		}
		if tw.parsedA >= tw.parsedB {
			t.Errorf("the memo saved no parse: %d with it, %d with it cleared", tw.parsedA, tw.parsedB)
		}
		t.Logf("seed %d: %d parses with the memo, %d with it cleared", seed, tw.parsedA, tw.parsedB)
	})

	// A stale entry must not answer: a link candidate's text is edited at
	// the head of its main text, so the review snippet can only follow the
	// edit if the relink re-reads the page.
	t.Run("stale entry", func(t *testing.T) {
		w := smallWorld()
		reg := lrec.NewRegistry()
		webgen.RegisterConcepts(reg)
		mf := newMutableFetcher(w)
		b := &Builder{Fetcher: mf, Cfg: StandardConfig(reg, w.Cities(), webgen.Cuisines())}
		woc, _, err := b.Build(w.SeedURLs())
		if err != nil {
			t.Fatal(err)
		}
		defer woc.Close()
		var u string
		var rev *lrec.Record
		for _, r := range woc.Records.ByConcept("review") {
			if _, held := woc.links[r.Get("source")]; held {
				u, rev = r.Get("source"), r
				break
			}
		}
		if rev == nil {
			t.Fatal("no linked page has link features in the memo")
		}
		old, _ := w.Fetch(u)
		i := strings.Index(old, "<body")
		if i < 0 {
			t.Fatalf("%s has no body", u)
		}
		j := i + strings.IndexByte(old[i:], '>') + 1
		const lede = "Word reached us of a new chef, so we went back twice to taste for ourselves."
		edited := old[:j] + "<p>" + lede + "</p>" + old[j:]
		mf.setOverlay(u, edited)
		if _, err := b.Refresh(woc, []string{u}); err != nil {
			t.Fatal(err)
		}
		want := truncateBytes(extract.Analyze(webgraph.NewPage(u, edited)).MainText(), reviewSnippetBytes)
		got, err := woc.Records.Get(rev.ID)
		if err != nil {
			t.Fatalf("the edited page lost its review: %v", err)
		}
		if text := got.Get("text"); text != want || !strings.Contains(text, lede) {
			t.Errorf("review snippet after the edit = %q, want %q", text, want)
		}
		requireLinkMemoCurrent(t, "after the edit", woc)
	})
}

// TestBuildStreamKeepsNoLinkMemo: a streamed build keeps no link features,
// as it keeps no extraction memo; its first Refresh creates both.
func TestBuildStreamKeepsNoLinkMemo(t *testing.T) {
	w := smallWorld()
	mf := newMutableFetcher(w)
	b := streamBuilder(w, nil)
	b.Fetcher = mf
	woc, _, err := b.BuildStream(worldSource{w})
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	if woc.links != nil || woc.memo != nil {
		t.Fatal("BuildStream kept a memo")
	}
	u := woc.Pages.URLs()[0]
	html, _ := w.Fetch(u)
	mf.setOverlay(u, webgen.EditText(html, "A change."))
	if _, err := b.Refresh(woc, []string{u}); err != nil {
		t.Fatal(err)
	}
	if woc.links == nil || woc.memo == nil {
		t.Fatal("the first Refresh kept no memo")
	}
	requireLinkMemoCurrent(t, "after the first Refresh", woc)
}
