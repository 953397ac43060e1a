// Command wocsearch builds the system over the synthetic web and answers
// queries: web search with a concept box (Figure 1 of the paper), concept
// search, or an aggregation page.
//
// Usage:
//
//	wocsearch -q "golden dragon grill cupertino"       # web search + box
//	wocsearch -concept -q "best italian san jose"      # concept search
//	wocsearch -aggregate <record-id>                   # aggregation page
package main

import (
	"flag"
	"fmt"
	"log"

	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 1, "world generation seed")
	q := flag.String("q", "", "query")
	concept := flag.Bool("concept", false, "run concept search instead of web search")
	aggregate := flag.String("aggregate", "", "record ID to build an aggregation page for")
	k := flag.Int("k", 8, "results to show")
	flag.Parse()

	cfg := webgen.DefaultConfig()
	cfg.Seed = *seed
	w := webgen.Generate(cfg)
	sys, err := woc.Build(w.Fetch, w.SeedURLs(), woc.WithLocalDomain(w.Cities(), webgen.Cuisines()))
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	defer sys.Close()

	switch {
	case *aggregate != "":
		page, err := sys.Aggregate(*aggregate)
		if err != nil {
			log.Fatalf("aggregate: %v", err)
		}
		fmt.Printf("== %s ==\n", page.Title)
		for k, v := range page.Attrs {
			fmt.Printf("  %-10s %s", k, v)
			if c := page.Conflicts[k]; len(c) > 0 {
				fmt.Printf("   (conflicts: %v)", c)
			}
			fmt.Println()
		}
		fmt.Println("sources:")
		for _, s := range page.Sources {
			fmt.Printf("  [%-10s trust=%.2f] %s\n", s.Kind, s.Trust, s.URL)
		}
		for i, r := range page.Reviews {
			fmt.Printf("review %d: %s\n", i+1, r)
		}
	case *concept:
		if *q == "" {
			log.Fatal("need -q")
		}
		for i, h := range sys.ConceptSearch(*q, *k) {
			fmt.Printf("%2d. [%5.2f] %s — %s, %s (%s)\n", i+1, h.Score,
				h.Record.Attrs["name"], h.Record.Attrs["street"],
				h.Record.Attrs["city"], h.Record.ID)
		}
	default:
		if *q == "" {
			log.Fatal("need -q")
		}
		page := sys.Search(*q, *k)
		if page.Box != nil {
			fmt.Printf("┌─ %s", page.Box.Name)
			if page.Box.Rating != "" {
				fmt.Printf("  ★ %s", page.Box.Rating)
			}
			fmt.Println()
			fmt.Printf("│  %s · %s\n", page.Box.Address, page.Box.Phone)
			if page.Box.Homepage != "" {
				fmt.Printf("│  official site: %s\n", page.Box.Homepage)
			}
			for _, r := range page.Box.Reviews {
				snippet := r
				if len(snippet) > 90 {
					snippet = snippet[:90] + "…"
				}
				fmt.Printf("│  “%s”\n", snippet)
			}
			fmt.Println("└─")
		}
		for i, d := range page.Results {
			marker := "  "
			if d.IsHomepage {
				marker = "🏠"
			}
			fmt.Printf("%2d. %s [%5.2f] %s\n", i+1, marker, d.Score, d.URL)
		}
		if len(page.Assistance) > 0 {
			fmt.Printf("related searches: %v\n", page.Assistance)
		}
	}
}
