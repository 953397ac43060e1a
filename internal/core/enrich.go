package core

import (
	"sort"
	"strings"

	"conceptweb/internal/extract"
	"conceptweb/internal/lrec"
	"conceptweb/internal/textproc"
)

// Enrichment is the second of the paper's extraction operation families
// (§4: operations "either create new records belonging to the concept or
// enrich existing records"). EnrichMenus walks the official-homepage sites
// of stored restaurant records, extracts their menu lists with the menu
// domain knowledge, and folds the dishes into the records' "menu" attribute
// — which is what makes attribute queries like "gochi menu" answerable from
// the concept store.

// EnrichStats reports one enrichment pass.
type EnrichStats struct {
	RecordsEnriched int
	DishesAdded     int
}

// EnrichMenus attaches menu attributes to restaurant records from their
// homepage sites' menu pages. A record that holds a menu already is left
// alone, so a second pass (a reopened system's) adds nothing.
func (b *Builder) EnrichMenus(woc *WebOfConcepts) EnrichStats {
	var stats EnrichStats
	// homepage host -> record ID
	hostOf := make(map[string]string)
	for _, r := range woc.Records.ByConcept("restaurant") {
		hp := strings.TrimSuffix(r.Get("homepage"), "/")
		if hp != "" && r.Get("menu") == "" {
			hostOf[hp] = r.ID
		}
	}
	if len(hostOf) == 0 {
		return stats
	}
	le := &extract.ListExtractor{Domain: extract.MenuDomain()}
	dishes := make(map[string][]string) // record ID -> dish names
	prov := make(map[string]string)     // record ID -> source URL
	// Only homepage hosts' pages are read: sorted hosts, then each host's
	// pages in sorted order. A record's dishes all come from its one host,
	// so this is the order a scan of the whole store would visit them in.
	hosts := make([]string, 0, len(hostOf))
	for h := range hostOf {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		rid := hostOf[h]
		for _, u := range woc.Pages.HostPages(h) {
			p, err := woc.Pages.Get(u)
			if err != nil {
				continue
			}
			for _, c := range le.Extract(p) {
				name := c.Get("name")
				if name == "" {
					continue
				}
				dishes[rid] = append(dishes[rid], name)
				prov[rid] = p.URL
			}
		}
	}
	ids := make([]string, 0, len(dishes))
	for id := range dishes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rec, err := woc.Records.Get(id)
		if err != nil {
			continue
		}
		ds := dedupDishes(dishes[id])
		seq := woc.Records.NextSeq()
		rec.Add("menu", lrec.AttrValue{
			Value:      strings.Join(ds, "; "),
			Confidence: 0.85,
			Prov: lrec.Provenance{SourceURL: prov[id],
				Operators: []string{"listextract:menuitem", "enrich"}, Seq: seq},
		})
		if woc.Records.Put(rec) == nil {
			stats.RecordsEnriched++
			stats.DishesAdded += len(ds)
			b.indexRecord(woc, rec) // menus become searchable
		}
	}
	return stats
}

func dedupDishes(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, d := range in {
		n := textproc.Normalize(d)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
