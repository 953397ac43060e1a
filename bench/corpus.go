package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"conceptweb/internal/textproc"
	"conceptweb/internal/webgen"
	"conceptweb/woc"
)

// corpus is a heavy-tail world generated once and held as url → html, so that
// the timed regions time the program and not the generator
// (webgen.StreamWorld.Fetch regenerates a whole site for a random URL). It is
// the core.PageSource of the build workload and the fetcher of the others.
type corpus struct {
	world *webgen.StreamWorld
	urls  []string // in the order the world emits them

	mu   sync.RWMutex
	html map[string]string

	// onFetch, when set, is told the interval of every Fetch: the traced
	// maintain run makes a span of it.
	onFetch func(start, end time.Time)
}

func newCorpus(pages int, seed int64) *corpus {
	cfg := webgen.HeavyTailConfig(pages)
	cfg.Seed = seed
	c := &corpus{world: webgen.NewStreamWorld(cfg), html: map[string]string{}}
	// The emitter never fails, so neither does the stream.
	_ = c.world.StreamPages(func(url, html string) error {
		c.urls = append(c.urls, url)
		c.html[url] = html
		return nil
	})
	return c
}

// StreamPages implements core.PageSource.
func (c *corpus) StreamPages(emit func(url, html string) error) error {
	for _, u := range c.urls {
		if err := emit(u, c.html[u]); err != nil {
			return err
		}
	}
	return nil
}

// Fetch implements webgraph.Fetcher and woc.Fetcher: one map lookup.
func (c *corpus) Fetch(url string) (string, error) {
	if c.onFetch != nil {
		start := time.Now()
		defer func() { c.onFetch(start, time.Now()) }()
	}
	c.mu.RLock()
	html, ok := c.html[url]
	c.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("bench: no page at %s", url)
	}
	return html, nil
}

// edit changes a page the way a site edit would: it appends a paragraph that
// holds marker, a word found nowhere else in the corpus.
func (c *corpus) edit(url, marker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := "<p>Update " + marker + " posted today.</p>"
	html := c.html[url]
	if i := strings.LastIndex(html, "</body>"); i >= 0 {
		c.html[url] = html[:i] + p + html[i:]
	} else {
		c.html[url] = html + p
	}
}

// query is one entry of the search vocabulary. recID is the record the query
// was made from; instance queries should return it in the concept box.
type query struct {
	q        string
	k        int
	recID    string
	instance bool
}

// vocabulary makes the §5.1 query forms from the restaurant records: instance
// (name city), set (cuisine city) and attribute (name menu, name phone), each
// at k = 10 and 20. Queries are normalised as the serving layer normalises
// them, so two entries never share a cache key; they are sorted, then shuffled
// by the seed.
func vocabulary(recs []woc.Record, seed int64) []query {
	seen := map[string]bool{}
	var out []query
	add := func(q, recID string, instance bool) {
		q = textproc.NormalizeQuery(q)
		if q == "" || seen[q] {
			return
		}
		seen[q] = true
		for _, k := range []int{10, 20} {
			out = append(out, query{q: q, k: k, recID: recID, instance: instance})
		}
	}
	for _, r := range recs {
		name, city, cuisine := r.Attrs["name"], r.Attrs["city"], r.Attrs["cuisine"]
		if name == "" {
			continue
		}
		if city != "" {
			add(name+" "+city, r.ID, true)
			if cuisine != "" {
				add(cuisine+" "+city, r.ID, false)
			}
		}
		add(name+" menu", r.ID, false)
		add(name+" phone", r.ID, false)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].q != out[j].q {
			return out[i].q < out[j].q
		}
		return out[i].k < out[j].k
	})
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Operation kinds of the serve workloads, in the mix a result page produces:
// of 20 operations 12 are Search, 4 ConceptSearch, 2 Aggregate, 1 Alternatives
// and 1 Record.
const (
	opSearch = iota
	opConcept
	opAggregate
	opAlternatives
	opRecord
	numOps
)

var opNames = [numOps]string{"search", "concepts", "aggregate", "alternatives", "record"}

var opMix = [20]uint8{
	opSearch, opConcept, opSearch, opAggregate, opSearch, opSearch, opConcept, opSearch, opRecord, opSearch,
	opSearch, opConcept, opSearch, opAggregate, opSearch, opSearch, opConcept, opSearch, opAlternatives, opSearch,
}

// op is one scheduled operation: its kind and the index of its key, into the
// vocabulary for the two search kinds and into the record IDs for the others.
type op struct {
	kind uint8
	idx  uint32
}

// cyclicOps schedules n operations for one of several clients. The keys walk
// each key space in order, one step per operation of that kind; the clients
// start evenly spaced around the cycle. A key comes round again only after
// the other keys of its space, so with more keys than twice the cache holds
// the walk never meets a key the cache still has.
func cyclicOps(n, client, clients, vocab, recs int) []op {
	space := [numOps]int{opSearch: vocab, opConcept: vocab, opAggregate: recs, opAlternatives: recs, opRecord: recs}
	var next [numOps]int
	for k := range next {
		next[k] = client * space[k] / clients
	}
	ops := make([]op, n)
	for i := range ops {
		k := opMix[i%len(opMix)]
		ops[i] = op{kind: k, idx: uint32(next[k] % space[k])}
		next[k]++
	}
	return ops
}

// zipfOps schedules n operations whose keys are drawn zipf(s = 1.1) from the
// first hot entries of each key space: a working set that fits the cache.
func zipfOps(n int, seed int64, hot, vocab, recs int) []op {
	rng := rand.New(rand.NewSource(seed))
	zv := rand.NewZipf(rng, 1.1, 1, uint64(min(hot, vocab)-1))
	zr := rand.NewZipf(rng, 1.1, 1, uint64(min(hot, recs)-1))
	ops := make([]op, n)
	for i := range ops {
		k := opMix[rng.Intn(len(opMix))]
		if k == opSearch || k == opConcept {
			ops[i] = op{kind: k, idx: uint32(zv.Uint64())}
		} else {
			ops[i] = op{kind: k, idx: uint32(zr.Uint64())}
		}
	}
	return ops
}
