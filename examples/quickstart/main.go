// Quickstart: build a web of concepts over the synthetic web and run one
// concept-aware search — the Figure 1 experience in a dozen lines.
package main

import (
	"fmt"
	"log"

	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

func main() {
	log.SetFlags(0)

	// 1. A web to build from. Here the deterministic synthetic web; in a
	// real deployment this is an HTTP fetcher and a seed list.
	cfg := webgen.DefaultConfig()
	cfg.Restaurants = 60
	world := webgen.Generate(cfg)

	// 2. Build: crawl -> extract -> resolve -> link -> index.
	sys, err := woc.Build(world.Fetch, world.SeedURLs(),
		woc.WithLocalDomain(world.Cities(), webgen.Cuisines()))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close() // removes the system's temporary page store
	st := sys.Stats()
	fmt.Printf("built: %d pages, %d candidates, %d records, %d pages linked\n\n",
		st.PagesFetched, st.Candidates, st.RecordsStored, st.PagesLinked)

	// 3. Search for a specific restaurant the way the paper's §5.1 example
	// searches for "gochi cupertino".
	var query string
	for _, r := range world.Restaurants {
		if r.Homepage != "" {
			query = r.Name + " " + r.City
			break
		}
	}
	page := sys.Search(query, 5)
	fmt.Printf("query: %q\n", query)
	if page.Box != nil {
		fmt.Printf("concept box: %s\n  address: %s\n  phone:   %s\n  site:    %s\n",
			page.Box.Name, page.Box.Address, page.Box.Phone, page.Box.Homepage)
		for _, rv := range page.Box.Reviews {
			fmt.Printf("  review:  %.80s…\n", rv)
		}
	}
	fmt.Println("results:")
	for i, d := range page.Results {
		tag := ""
		if d.IsHomepage {
			tag = "  <- official homepage"
		}
		fmt.Printf("  %d. %s%s\n", i+1, d.URL, tag)
	}
}
