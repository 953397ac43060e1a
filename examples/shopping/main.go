// Shopping example: the product domain of §2.3 and §5.4–5.5 — extract the
// camera catalog, follow the D40-style augmentation relation (camera →
// battery), and run the concept-bidding ad marketplace over a simulated
// shopping session.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"conceptweb/internal/ads"
	"conceptweb/internal/extract"
	"conceptweb/internal/lrec"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

func main() {
	log.SetFlags(0)
	world := webgen.Generate(webgen.DefaultConfig())

	// Crawl and extract the shop catalog.
	dir, err := os.MkdirTemp("", "shopping-pages-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := webgraph.OpenDiskStore(dir, webgraph.DiskOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	(&webgraph.Crawler{Fetcher: world, Store: store}).Crawl([]string{webgen.ShopHost + "/"})
	det := &extract.KeyValueExtractor{Concept: "product",
		Labels: extract.ProductLabels(), NameKey: "name"}
	regst := lrec.NewRegistry()
	webgen.RegisterConcepts(regst)
	recs := lrec.NewMemStore(lrec.WithRegistry(regst))
	n := 0
	store.Scan(func(p *webgraph.Page) bool {
		for _, c := range det.Extract(p) {
			seq := recs.NextSeq()
			if err := recs.Put(c.ToRecord(c.SynthesizeID(), seq)); err == nil {
				n++
			}
		}
		return true
	})
	fmt.Printf("extracted %d product records from %s\n\n", n, webgen.ShopHost)

	// Pick a camera with accessories from ground truth and show the
	// augmentation chain through the extracted store.
	var camera *webgen.Product
	var battery *webgen.Product
	for _, p := range world.Products {
		if p.AccessoryOf != "" && strings.Contains(p.Kind, "battery") {
			if cam, ok := world.ProductByID(p.AccessoryOf); ok {
				camera, battery = cam, p
				break
			}
		}
	}
	if camera == nil {
		for _, p := range world.Products {
			if p.AccessoryOf != "" {
				cam, _ := world.ProductByID(p.AccessoryOf)
				camera, battery = cam, p
				break
			}
		}
	}
	if camera == nil {
		log.Fatal("no camera with accessories in world")
	}
	fmt.Printf("== %s (%s) ==\n", camera.Name, camera.Price)
	fmt.Printf("augmentation (the NB-7L pattern): %s (%s)\n\n", battery.Name, battery.Price)

	// Find the extracted camera record.
	var camRec *lrec.Record
	for _, r := range recs.ByConcept("product") {
		if strings.EqualFold(r.Get("name"), camera.Name) {
			camRec = r
			break
		}
	}
	if camRec == nil {
		log.Fatal("camera record not extracted")
	}
	fmt.Printf("extracted record: %s\n  brand=%s model=%s price=%s\n\n",
		camRec.ID, camRec.Get("brand"), camRec.Get("model"), camRec.Get("price"))

	// The ad marketplace: a keyword bidder vs. a concept bidder competing
	// for a navigational camera query.
	inv := ads.NewInventory()
	inv.Add(ads.Ad{
		ID: "kw-generic", Advertiser: "MegaCamera Outlet", Bid: 1.2,
		Creative: "Cameras up to 40% off!", Keywords: []string{"camera", "deal"},
	})
	inv.Add(ads.Ad{
		ID: "concept-accessories", Advertiser: camera.Brand + " Accessories Store", Bid: 1.0,
		Creative: "Official " + camera.Model + " batteries and bags",
		Targets:  []ads.Target{{Concept: "product", Key: "model", Value: camera.Model}},
		Keywords: []string{"battery"},
	})
	ctx := ads.Context{
		Query:  strings.ToLower(camera.Name),
		Record: camRec,
		Interests: map[string]float64{
			"concept:product": 0.9, "kind:camera": 0.7,
		},
	}
	fmt.Printf("ad auction for query %q:\n", ctx.Query)
	for i, p := range ads.Auction(inv, ctx, 2) {
		fmt.Printf("  slot %d: %s — %q (relevance %.2f, pays $%.2f per click)\n",
			i+1, p.Ad.Advertiser, p.Ad.Creative, p.Relevance, p.Price)
	}
}
