// Academic example: the academic-domain pipeline of §4 on scholarly data —
// domain-centric list extraction of publications, the trained sequence
// tagger parsing free-form citation strings from personal homepages, and
// collective entity matching that reconciles the two views of each paper.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"conceptweb/internal/extract"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

func main() {
	log.SetFlags(0)
	cfg := webgen.DefaultConfig()
	cfg.Authors = 30
	cfg.Papers = 60
	world := webgen.Generate(cfg)

	// Crawl the academic sites.
	dir, err := os.MkdirTemp("", "academic-pages-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := webgraph.OpenDiskStore(dir, webgraph.DiskOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	crawler := &webgraph.Crawler{Fetcher: world, Store: store}
	fetched, _ := crawler.Crawl([]string{webgen.ScholarHost + "/"})
	for _, site := range world.Sites {
		if strings.HasPrefix(site.Host, "people.") {
			crawler.Crawl([]string{site.Host + "/"})
		}
	}
	fmt.Printf("crawled %d+ academic pages\n", fetched)

	// 1. Structured view: domain-centric list extraction on scholarhub.
	venues := []string{"PODS", "SIGMOD", "VLDB", "ICDE", "KDD", "WWW", "WSDM", "CIDR"}
	le := &extract.ListExtractor{Domain: extract.PublicationDomain(venues)}
	var structured []*extract.Candidate
	store.Scan(func(p *webgraph.Page) bool {
		if p.Host == webgen.ScholarHost {
			structured = append(structured, le.Extract(p)...)
		}
		return true
	})
	fmt.Printf("structured extraction: %d publication candidates from %s\n",
		len(structured), webgen.ScholarHost)

	// 2. Semantic view: train the sequence tagger on style-0 citations from
	// scholarhub's ground-truthish rendering, then parse personal homepages.
	tagger := extract.NewTagger([]string{
		extract.LabelAuthor, extract.LabelTitle, extract.LabelVenue,
		extract.LabelYear, extract.LabelOther})
	for _, v := range venues {
		tagger.Gazetteer[strings.ToLower(v)] = "venue"
	}
	tagger.Train(trainingCitations(world), 8)
	ce := &extract.CitationExtractor{Tagger: tagger}
	var semantic []*extract.Candidate
	store.Scan(func(p *webgraph.Page) bool {
		if strings.HasPrefix(p.Host, "people.") {
			semantic = append(semantic, ce.Extract(p)...)
		}
		return true
	})
	fmt.Printf("semantic extraction:  %d citation candidates from homepages\n", len(semantic))

	// 3. Reconcile the two views with collective matching.
	var recs []*lrec.Record
	seq := uint64(0)
	for _, c := range append(structured, semantic...) {
		seq++
		recs = append(recs, c.ToRecord(c.SynthesizeID()+fmt.Sprintf(":%d", seq), seq))
	}
	matcher := match.NewMatcher(match.PublicationComparators())
	clusters := match.Resolve(recs, matcher, match.CollectiveOptions{
		MaxRounds: 3,
		Blockers: []func(*lrec.Record) string{
			match.NameTokenBlock,
			func(r *lrec.Record) string { return r.Get("year") },
		},
	})
	fmt.Printf("entity matching:      %d candidates -> %d resolved publications\n\n",
		len(recs), len(clusters))

	// Print a sample author profile assembled from the resolved records.
	author := world.Authors[0]
	fmt.Printf("== profile: %s (%s) ==\n", author.Name, author.Affiliation)
	var titles []string
	for _, pid := range author.PaperIDs {
		if p, ok := world.PaperByID(pid); ok {
			titles = append(titles, p.Title)
		}
	}
	sort.Strings(titles)
	found := 0
	for _, title := range titles {
		var best *lrec.Record
		for _, cl := range clusters {
			if strings.EqualFold(cl.Rep.Get("title"), title) {
				best = cl.Rep
				break
			}
		}
		if best != nil {
			found++
			fmt.Printf("  ✓ %s — %s %s (from %d source records)\n",
				best.Get("title"), best.Get("venue"), best.Get("year"),
				len(best.All("title"))+1)
		} else {
			fmt.Printf("  ✗ %s (not recovered)\n", title)
		}
	}
	fmt.Printf("recovered %d/%d of the author's publications\n", found, len(titles))
}

// trainingCitations builds labeled sequences from the world's papers in the
// default citation style (the "few labeled examples" supervision budget).
func trainingCitations(w *webgen.World) []extract.Tagged {
	var out []extract.Tagged
	for _, p := range w.Papers {
		if len(out) >= 80 {
			break
		}
		var names []string
		for _, aid := range p.AuthorIDs {
			if a, ok := w.AuthorByID(aid); ok {
				names = append(names, a.Name)
			}
		}
		authors := strings.Join(names, ", ")
		full := fmt.Sprintf("%s. %s. %s %d.", authors, p.Title, p.Venue, p.Year)
		toks := extract.TokenizeCitation(full)
		labels := make([]string, len(toks))
		mark := func(part, label string) {
			pt := extract.TokenizeCitation(part)
			for i := 0; i+len(pt) <= len(toks); i++ {
				ok := true
				for j := range pt {
					if toks[i+j] != pt[j] {
						ok = false
						break
					}
				}
				if ok {
					for j := range pt {
						labels[i+j] = label
					}
				}
			}
		}
		for i := range labels {
			labels[i] = extract.LabelOther
		}
		mark(p.Title, extract.LabelTitle)
		mark(authors, extract.LabelAuthor)
		mark(p.Venue, extract.LabelVenue)
		mark(fmt.Sprintf("%d", p.Year), extract.LabelYear)
		out = append(out, extract.Tagged{Tokens: toks, Labels: labels})
	}
	return out
}
