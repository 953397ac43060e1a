package core

import (
	"strings"
	"testing"

	"conceptweb/internal/lrec"
	"conceptweb/internal/taxonomy"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
)

// TestEnrichMenus enriches a build of its own: the shared fixture of built
// may already hold the menus another test added.
func TestEnrichMenus(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	b := &Builder{Fetcher: w, Cfg: StandardConfig(reg, w.Cities(), nil)}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	stats := b.EnrichMenus(woc)
	if stats.RecordsEnriched == 0 || stats.DishesAdded == 0 {
		t.Fatalf("enrich stats = %+v", stats)
	}
	// Enriched records' menus contain the ground-truth dishes.
	checked := 0
	for _, r := range w.Restaurants {
		if r.Homepage == "" {
			continue
		}
		recs := woc.Records.ByAttr("restaurant", "phone", r.Phone)
		if len(recs) != 1 {
			continue
		}
		menu := recs[0].Get("menu")
		if menu == "" {
			continue
		}
		hits := 0
		for _, dish := range r.Menu {
			if strings.Contains(textproc.Normalize(menu), textproc.Normalize(dish)) {
				hits++
			}
		}
		if hits < len(r.Menu)/2 {
			t.Errorf("record for %s has menu %q, few ground-truth dishes", r.Name, menu)
		}
		checked++
		if checked >= 10 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no enriched record verified")
	}
	// Lineage records the enrichment operator chain.
	foundOp := false
	for _, r := range woc.Records.ByConcept("restaurant") {
		for _, v := range r.All("menu") {
			for _, op := range v.Prov.Operators {
				if op == "enrich" {
					foundOp = true
				}
			}
		}
	}
	if !foundOp {
		t.Error("no menu value carries the enrich operator in its lineage")
	}
	// Enrichment is idempotent on re-run (same dishes merge into the same
	// value, no duplicate menu entries).
	before := menuValueCount(woc)
	b.EnrichMenus(woc)
	if after := menuValueCount(woc); after != before {
		t.Errorf("re-enrichment changed menu value count: %d -> %d", before, after)
	}
}

// TestEnrichMenusReadsOnlyHomepageHosts: enrichment reads the pages of the
// restaurant records' homepage hosts and no other — each once, so the page
// store's parse count moves by exactly the number of pages those hosts hold.
func TestEnrichMenusReadsOnlyHomepageHosts(t *testing.T) {
	w := smallWorld()
	reg := lrec.NewRegistry()
	webgen.RegisterConcepts(reg)
	b := &Builder{Fetcher: w, Cfg: StandardConfig(reg, w.Cities(), nil)}
	woc, _, err := b.Build(w.SeedURLs())
	if err != nil {
		t.Fatal(err)
	}
	defer woc.Close()
	hosts := map[string]bool{}
	for _, r := range woc.Records.ByConcept("restaurant") {
		if hp := strings.TrimSuffix(r.Get("homepage"), "/"); hp != "" {
			hosts[hp] = true
		}
	}
	want := 0
	for h := range hosts {
		want += len(woc.Pages.HostPages(h))
	}
	if want == 0 || want >= woc.Pages.Len() {
		t.Fatalf("homepage hosts hold %d of %d pages: the world exercises nothing", want, woc.Pages.Len())
	}
	before := woc.Pages.Stats().Parses
	if st := b.EnrichMenus(woc); st.RecordsEnriched == 0 {
		t.Fatalf("enrich stats = %+v", st)
	}
	if got := int(woc.Pages.Stats().Parses - before); got != want {
		t.Errorf("EnrichMenus parsed %d pages, want the %d pages of %d homepage hosts", got, want, len(hosts))
	}
}

func menuValueCount(woc *WebOfConcepts) int {
	n := 0
	for _, r := range woc.Records.ByConcept("restaurant") {
		n += len(r.All("menu"))
	}
	return n
}

func TestDataTaxonomyOverStore(t *testing.T) {
	w, woc, _, b := built(t)
	b.EnrichMenus(woc) // menus sharpen the clustering signal
	tx := woc.DataTaxonomy("restaurant", "restaurant", 12, "cuisine", "menu")
	nodes := tx.Nodes()
	if len(nodes) < 12 {
		t.Fatalf("taxonomy too small: %v", nodes)
	}
	// Every clustered record is an instance of exactly one sub-concept
	// that is-a restaurant (records without cuisine/menu text are skipped).
	placed := 0
	for _, r := range woc.Records.ByConcept("restaurant") {
		parents := tx.Parents(r.ID, taxonomy.InstanceOf)
		if len(parents) == 0 {
			continue
		}
		if len(parents) != 1 {
			t.Fatalf("record %s has parents %v", r.ID, parents)
		}
		if !tx.IsKindOf(parents[0], "restaurant") {
			t.Errorf("cluster %s not under root", parents[0])
		}
		placed++
	}
	if placed == 0 {
		t.Fatal("nothing placed")
	}
	// Clusters should be cuisine-skewed: measure purity against truth.
	cuisineOf := map[string]string{}
	for _, rest := range w.Restaurants {
		for _, rec := range woc.Records.ByAttr("restaurant", "phone", rest.Phone) {
			cuisineOf[rec.ID] = rest.Cuisine
		}
	}
	byCluster := map[string]map[string]int{}
	total, pure := 0, 0
	for _, r := range woc.Records.ByConcept("restaurant") {
		c := cuisineOf[r.ID]
		parents := tx.Parents(r.ID, taxonomy.InstanceOf)
		if c == "" || len(parents) == 0 {
			continue
		}
		p := parents[0]
		if byCluster[p] == nil {
			byCluster[p] = map[string]int{}
		}
		byCluster[p][c]++
		total++
	}
	for _, counts := range byCluster {
		maxN := 0
		for _, n := range counts {
			if n > maxN {
				maxN = n
			}
		}
		pure += maxN
	}
	purity := float64(pure) / float64(total)
	t.Logf("data-driven taxonomy purity over cuisines = %.3f (%d records, %d clusters)",
		purity, total, len(byCluster))
	if purity < 0.65 {
		t.Errorf("purity %.3f too low", purity)
	}
}
