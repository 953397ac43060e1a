// Command wocsearch -data DIR reopens the system `wocbuild -out DIR` wrote
// (woc.Open) and answers queries: web search with a concept box (Figure 1 of
// the paper), concept search, or an aggregation page.
//
// Usage:
//
//	wocsearch -data DIR -q "golden dragon grill cupertino"    # web search + box
//	wocsearch -data DIR -concept -q "best italian san jose"   # concept search
//	wocsearch -data DIR -aggregate <record-id>                # aggregation page
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"conceptweb/woc"
)

func main() {
	log.SetFlags(0)
	data := flag.String("data", "", "directory written by wocbuild -out to search (required)")
	q := flag.String("q", "", "query")
	concept := flag.Bool("concept", false, "run concept search instead of web search")
	aggregate := flag.String("aggregate", "", "record ID to build an aggregation page for")
	k := flag.Int("k", 8, "results to show")
	flag.Parse()

	if *data == "" {
		log.Fatal("-data is required: write a directory with wocbuild -out DIR, then search it with wocsearch -data DIR")
	}
	sys, err := woc.Open(*data)
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer sys.Close()

	switch {
	case *aggregate != "":
		page, err := sys.Aggregate(*aggregate)
		if err != nil {
			log.Fatalf("aggregate: %v", err)
		}
		printAggregation(os.Stdout, page)
	case *concept:
		if *q == "" {
			log.Fatal("need -q")
		}
		printHits(os.Stdout, sys.ConceptSearch(*q, *k))
	default:
		if *q == "" {
			log.Fatal("need -q")
		}
		printPage(os.Stdout, sys.Search(*q, *k))
	}
}

// printAggregation writes an aggregation page, its attributes in key order.
func printAggregation(w io.Writer, page *woc.Aggregation) {
	fmt.Fprintf(w, "== %s ==\n", page.Title)
	keys := make([]string, 0, len(page.Attrs))
	for k := range page.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-10s %s", k, page.Attrs[k])
		if c := page.Conflicts[k]; len(c) > 0 {
			fmt.Fprintf(w, "   (conflicts: %v)", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "sources:")
	for _, s := range page.Sources {
		fmt.Fprintf(w, "  [%-10s trust=%.2f] %s\n", s.Kind, s.Trust, s.URL)
	}
	for i, r := range page.Reviews {
		fmt.Fprintf(w, "review %d: %s\n", i+1, r)
	}
}

// printHits writes a concept search's ranked records.
func printHits(w io.Writer, hits []woc.Hit) {
	for i, h := range hits {
		fmt.Fprintf(w, "%2d. [%5.2f] %s — %s, %s (%s)\n", i+1, h.Score,
			h.Record.Attrs["name"], h.Record.Attrs["street"],
			h.Record.Attrs["city"], h.Record.ID)
	}
}

// printPage writes a web search result page: the concept box, with the
// attribute the query asked for when it named one, then the documents.
func printPage(w io.Writer, page *woc.Page) {
	if box := page.Box; box != nil {
		fmt.Fprintf(w, "┌─ %s", box.Name)
		if box.Rating != "" {
			fmt.Fprintf(w, "  ★ %s", box.Rating)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "│  %s · %s\n", box.Address, box.Phone)
		if box.RequestedKey != "" {
			fmt.Fprintf(w, "│  %s: %s\n", box.RequestedKey, box.RequestedValue)
		}
		if box.Homepage != "" {
			fmt.Fprintf(w, "│  official site: %s\n", box.Homepage)
		}
		for _, r := range box.Reviews {
			snippet := r
			if len(snippet) > 90 {
				snippet = snippet[:90] + "…"
			}
			fmt.Fprintf(w, "│  “%s”\n", snippet)
		}
		fmt.Fprintln(w, "└─")
	}
	for i, d := range page.Results {
		marker := "  "
		if d.IsHomepage {
			marker = "🏠"
		}
		fmt.Fprintf(w, "%2d. %s [%5.2f] %s\n", i+1, marker, d.Score, d.URL)
	}
	if len(page.Assistance) > 0 {
		fmt.Fprintf(w, "related searches: %v\n", page.Assistance)
	}
}
