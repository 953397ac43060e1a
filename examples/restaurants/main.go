// Restaurants example: the paper's local-domain scenarios end to end —
// the "mexican food chicago best salsa" research session (§3), aggregation
// pages with conflicting sources surfaced (§3, §7.3), alternatives
// recommendation (§5.4), and lineage explanations (§7.3).
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

func main() {
	log.SetFlags(0)
	world := webgen.Generate(webgen.DefaultConfig())
	sys, err := woc.Build(world.Fetch, world.SeedURLs(),
		woc.WithLocalDomain(world.Cities(), webgen.Cuisines()))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// --- The "best salsa" session: a set search with a dish constraint.
	fmt.Println("== concept search: best mexican mountain view ==")
	hits := sys.ConceptSearch("best mexican mountain view", 5)
	if len(hits) == 0 {
		hits = sys.ConceptSearch("best mexican san jose", 5)
	}
	for i, h := range hits {
		fmt.Printf("%d. %s (%s) — rating %s, %s\n", i+1,
			h.Record.Attrs["name"], h.Record.Attrs["cuisine"],
			h.Record.Attrs["rating"], h.Record.Attrs["street"])
	}
	if len(hits) == 0 {
		log.Fatal("no concept hits")
	}
	top := hits[0].Record

	// --- The aggregation page: every source about the winner, with trust.
	fmt.Printf("\n== aggregation page: %s ==\n", top.Attrs["name"])
	agg, err := sys.Aggregate(top.ID)
	if err != nil {
		log.Fatal(err)
	}
	for _, key := range []string{"name", "street", "city", "zip", "phone", "cuisine", "rating", "hours"} {
		if v := agg.Attrs[key]; v != "" {
			line := fmt.Sprintf("  %-8s %s", key, v)
			if c := agg.Conflicts[key]; len(c) > 0 {
				line += fmt.Sprintf("    !! conflicting values from other sources: %v", c)
			}
			fmt.Println(line)
		}
	}
	fmt.Println("  sources:")
	for _, s := range agg.Sources {
		fmt.Printf("    [%-10s trust %.2f] %s\n", s.Kind, s.Trust, s.URL)
	}
	for i, r := range agg.Reviews {
		if i == 2 {
			break
		}
		fmt.Printf("  review: %.90s…\n", r)
	}

	// --- Alternatives: other places that might displace this one.
	fmt.Printf("\n== alternatives to %s ==\n", top.Attrs["name"])
	alts, err := sys.Alternatives(top.ID, 4)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range alts {
		fmt.Printf("  %s (%s, rating %s) — %s\n", a.Record.Attrs["name"],
			a.Record.Attrs["cuisine"], a.Record.Attrs["rating"], a.Reason)
	}

	// --- Data-driven taxonomy (§2.3): cluster the extracted records into a
	// cuisine-like organization with no curated hierarchy.
	fmt.Println("\n== data-driven sub-concepts (cuisine+menu clustering) ==")
	cats := sys.Categories("restaurant", 10, "cuisine", "menu")
	names := make([]string, 0, len(cats))
	for name := range cats {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 6 {
		names = names[:6]
	}
	for _, name := range names {
		fmt.Printf("  %-28s %d instances\n", name, len(cats[name]))
	}

	// --- Lineage: why do we believe the phone number?
	fmt.Printf("\n== lineage of %s ==\n", top.Attrs["name"])
	lines, err := sys.Lineage(top.ID)
	if err != nil {
		log.Fatal(err)
	}
	shown := 0
	for _, l := range lines {
		if strings.HasPrefix(l, "phone=") || strings.HasPrefix(l, "zip=") {
			fmt.Println("  " + l)
			shown++
		}
	}
	if shown == 0 && len(lines) > 0 {
		fmt.Println("  " + lines[0])
	}
}
