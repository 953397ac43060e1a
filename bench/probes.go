package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"conceptweb/internal/core"
	"conceptweb/internal/extract"
	"conceptweb/internal/htmlx"
	"conceptweb/internal/index"
	"conceptweb/internal/lrec"
	"conceptweb/internal/match"
	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
	"conceptweb/internal/webgraph"
)

// probePages is the size of the corpus the layer probes run on; it is the
// smallest heavy-tail world the generator makes.
const probePages = 2000

// probeNames are the layer probes in the order a page and then a request
// cross the layers; each is reported as <name>_ns, nanoseconds per operation.
var probeNames = []string{
	"htmlx.parse", "textproc.tokenize", "extract.page_analysis", "match.resolve", "match.text_match",
	"index.add", "index.query", "webgraph.disk_put", "webgraph.disk_get",
	"lrec.put", "lrec.get", "lrec.replay", "lrec.compact",
}

// perLayer is every per-layer metric, in the order it is printed. A traced
// run of any workload reports all of them; those of a layer the workload does
// not cross are 0.
var perLayer = func() []metricDef {
	defs := []metricDef{{tailMetric, "us", "lower", 0}}
	for _, s := range buildStages {
		defs = append(defs, metricDef{"core.stage_ms." + s, "ms", "lower", 0})
	}
	for _, s := range refreshStages {
		defs = append(defs, metricDef{"core.refresh_stage_ms." + s, "ms", "lower", 0})
	}
	defs = append(defs,
		metricDef{"serving.hit_share", "share", "higher", 0},
		metricDef{"serving.coalesced", "count", "lower", 0},
		metricDef{"serving.shed", "count", "lower", 0},
		metricDef{"serving.self_us", "us", "lower", 0},
		metricDef{"search.compute_us", "us", "lower", 0},
		metricDef{"maintain.pass_s", "s", "lower", 0},
		metricDef{"maintain.lock_held_share", "share", "lower", 0},
		metricDef{"maintain.read_ok_share", "share", "higher", 0},
		metricDef{"maintain.reader_late_ms", "ms", "lower", 0},
		metricDef{"maintain.pass_vs_rebuild", "ratio", "lower", 0},
		metricDef{"lrec.wal_appends", "count", "lower", 0},
		metricDef{"refresh.records_superseded", "count", "lower", 0},
		metricDef{"refresh.pages_relinked", "count", "lower", 0},
	)
	for _, p := range probeNames {
		defs = append(defs, metricDef{p + "_ns", "ns", "lower", 0})
	}
	return defs
}()

// prober times calls into single layers and notes what they allocate. After
// a probe has failed the later ones do nothing, and err is the failure.
type prober struct {
	rep *report
	err error
}

// run times fn, which performs ops operations of one layer, on this goroutine
// alone, and reports ns/op as a metric and B/op, allocs/op and the operation
// count as information.
func (p *prober) run(name string, ops int, fn func() error) {
	if p.err != nil {
		return
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
		return
	}
	n := float64(max(ops, 1))
	p.rep.layer[name+"_ns"] = float64(wall.Nanoseconds()) / n
	p.rep.info["probe "+name] = fmt.Sprintf("%d ops, %.0f B/op, %.1f allocs/op", ops,
		float64(after.TotalAlloc-before.TotalAlloc)/n, float64(after.Mallocs-before.Mallocs)/n)
}

// runProbes times each layer around its exported entry point, on the pages of
// a fixed-size corpus and on the web of concepts built from it. The probes
// run after the workload's timed region, in the traced run only.
func runProbes(e *env, rep *report) error {
	p := &prober{rep: rep}
	c := newCorpus(probePages, e.seed)
	reg := lrec.NewRegistry()
	webgen.RegisterScaleConcepts(reg)
	b := &core.Builder{Fetcher: c, Cfg: core.ScaleConfig(reg, c.world.Cities(), webgen.Cuisines())}
	built, _, err := b.BuildStream(c)
	if err != nil {
		return fmt.Errorf("probe corpus: %w", err)
	}
	defer built.Close()
	recs := built.Records.ByConcept("restaurant")
	if len(recs) == 0 {
		return fmt.Errorf("probe corpus: no restaurant records")
	}

	// Inputs of the later probes are made outside their timed calls.
	pages := make([]*webgraph.Page, len(c.urls))
	texts := make([]string, len(c.urls))
	tokens := make([][]string, len(c.urls))
	docs := make([]index.Document, len(c.urls))

	p.run("htmlx.parse", len(c.urls), func() error {
		for _, u := range c.urls {
			htmlx.Parse(c.html[u])
		}
		return nil
	})
	for i, u := range c.urls {
		pages[i] = webgraph.NewPage(u, c.html[u])
		texts[i] = pages[i].Doc.Text()
		docs[i] = index.Document{ID: u, Fields: []index.Field{{Name: "body", Text: texts[i]}}}
	}
	p.run("textproc.tokenize", len(texts), func() error {
		for _, t := range texts {
			textproc.Tokenize(t)
		}
		return nil
	})
	p.run("extract.page_analysis", len(pages), func() error {
		for i, pg := range pages {
			pa := extract.Analyze(pg)
			pa.Groups(2)
			pa.Pairs()
			tokens[i] = pa.MainTokens()
		}
		return nil
	})
	p.run("match.resolve", len(recs), func() error {
		match.Resolve(recs, match.NewMatcher(match.RestaurantComparators()), match.DefaultCollectiveOptions())
		return nil
	})
	tm := match.NewTextMatcher(recs)
	tm.MatchTokens(tokens[0], 3) // the first match builds the matcher's tables
	p.run("match.text_match", len(tokens), func() error {
		for _, t := range tokens {
			tm.MatchTokens(t, 3)
		}
		return nil
	})
	ix := index.NewSharded(1)
	p.run("index.add", len(docs), func() error {
		for _, d := range docs {
			ix.Add(d)
		}
		return nil
	})
	p.run("index.query", len(recs), func() error {
		for _, r := range recs {
			built.DocIndex.Search(r.Get("name")+" "+r.Get("city"), 10)
		}
		return nil
	})

	psDir, err := e.tempDir("probe-pagestore")
	if err != nil {
		return err
	}
	defer os.RemoveAll(psDir)
	ps, err := webgraph.OpenDiskStore(psDir, webgraph.DiskOptions{})
	if err != nil {
		return err
	}
	defer ps.Close()
	p.run("webgraph.disk_put", len(pages), func() error {
		for _, pg := range pages {
			ps.Put(pg)
		}
		return ps.Flush()
	})
	// More pages than the store's parsed-page cache holds, read in the order
	// written: every Get reads its segment and parses.
	p.run("webgraph.disk_get", len(pages), func() error {
		for _, pg := range pages {
			if _, err := ps.Get(pg.URL); err != nil {
				return err
			}
		}
		return nil
	})

	recDir, err := e.tempDir("probe-lrec")
	if err != nil {
		return err
	}
	defer os.RemoveAll(recDir)
	st, err := lrec.Open(recDir, lrec.WithRegistry(reg))
	if err != nil {
		return err
	}
	p.run("lrec.put", len(recs), func() error {
		for _, r := range recs {
			if err := st.Put(r.Clone()); err != nil {
				return err
			}
		}
		return nil
	})
	p.run("lrec.get", len(recs), func() error {
		for _, r := range recs {
			if _, err := st.Get(r.ID); err != nil {
				return err
			}
		}
		return nil
	})
	if err := st.Close(); err != nil {
		return err
	}
	p.run("lrec.replay", len(recs), func() error {
		st, err = lrec.Open(recDir, lrec.WithRegistry(reg))
		return err
	})
	if p.err != nil {
		return p.err
	}
	defer st.Close()
	p.run("lrec.compact", len(recs), st.Compact)
	return p.err
}
