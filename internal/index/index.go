// Package index implements an in-memory inverted index with BM25F-style
// ranked retrieval.
//
// The paper's premise (§2.2) is that a web of concepts should remain
// "amenable to leveraging existing search engine infrastructure" — i.e. an
// inverted index. This package is that infrastructure: it indexes both
// plain documents (web pages) and flattened lrecs, and the search layer
// (internal/search) builds concept-aware ranking on top of it.
package index

import (
	"errors"
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"

	"conceptweb/internal/textproc"
)

// ErrNotFound is returned when a requested document is not in the index.
var ErrNotFound = errors.New("index: document not found")

// Field names a document section with its own length statistics and boost.
type Field struct {
	Name  string
	Text  string
	Boost float64 // defaults to 1 if <= 0
}

// Document is the unit of indexing.
type Document struct {
	ID     string
	Fields []Field
}

// posting records how often a term occurs in one document field. Three
// int32s keep it at 12 bytes: postings are most of an index's heap.
type posting struct {
	doc   int32 // internal doc number
	field int32 // internal field number
	freq  int32
}

// fieldStats tracks per-field length statistics for BM25F normalization.
type fieldStats struct {
	name     string
	totalLen int
	boost    float64
}

// Index is an inverted index. All methods are safe for concurrent use; a
// single RWMutex suffices because the workloads here are read-heavy after a
// bulk build, matching the paper's build-then-serve lifecycle.
type Index struct {
	mu       sync.RWMutex
	postings map[string][]posting
	extIDs   []string       // doc number -> external ID
	byExt    map[string]int // external ID -> doc number
	docLens  [][]int        // doc number -> field number -> token count
	dead     []bool         // doc number -> removed from retrieval (tombstone)
	ndead    int            // tombstones in dead
	fields   []fieldStats
	fieldNum map[string]int

	// ranks is the slot → ID-rank array the query kernel breaks score ties
	// with (see slotRanks). An add leaves it short of the slots and the next
	// ranked query extends it; a compaction renumbers the slots and drops it.
	ranks atomic.Pointer[[]int32]

	// epoch counts visible mutations (adds and live-doc removals); the
	// serving layer folds it into one cache-invalidation signal.
	epoch atomic.Uint64
}

// The standard BM25 parameters, shared by every index.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[string][]posting),
		byExt:    make(map[string]int),
		fieldNum: make(map[string]int),
	}
}

// NewSharded returns New(); its argument is ignored. It remains only because
// the benchmark module (bench/probes.go) still calls it: once that calls New,
// delete it.
func NewSharded(int) *Index { return New() }

// tokenize produces the index token stream: lowercased, stemmed, stopwords
// retained (they count toward field lengths and match query stopwords, so
// dropping them would change every score).
func tokenize(s string) []string {
	return textproc.StemInPlace(textproc.Tokenize(s))
}

// PreparedTerm is one distinct term of a prepared field and the number of
// times it occurs there.
type PreparedTerm struct {
	Term string
	Freq int
}

// PreparedField is one analyzed field of a PreparedDoc: its token count and
// its distinct terms in first-occurrence order.
type PreparedField struct {
	Name  string
	Boost float64
	Len   int
	Terms []PreparedTerm
}

// PreparedDoc is a document analyzed outside the index lock. Prepare does
// everything that depends on the document alone — tokenization, stemming and
// the counting of each field's tokens by term — and AddPrepared is left with
// slot bookkeeping and one posting append per (term, field). Builders prepare
// documents on any goroutine and merge them in a fixed order, so internal doc
// and field numbering stays deterministic regardless of worker count.
type PreparedDoc struct {
	ID     string
	Fields []PreparedField
}

// Prepare analyzes doc for a later AddPrepared. It touches no index state
// and is safe to call from any goroutine.
func Prepare(doc Document) PreparedDoc {
	pd := PreparedDoc{ID: doc.ID, Fields: make([]PreparedField, len(doc.Fields))}
	g := grouperPool.Get().(*grouper)
	for i, f := range doc.Fields {
		boost := f.Boost
		if boost <= 0 {
			boost = 1
		}
		pd.Fields[i] = g.field(f.Name, boost, tokenize(f.Text))
	}
	grouperPool.Put(g)
	return pd
}

// grouper is the working memory of one Prepare call, reused through a pool:
// an open-addressing table from term to its number within the field being
// grouped, and per term its occurrence count and first position. A table
// slot belongs to the current field when it carries the current generation,
// so starting a field clears nothing.
type grouper struct {
	seed   maphash.Seed
	slots  []groupSlot // length a power of two, at least twice the field's tokens
	gen    uint32
	counts []int32 // by term number
	first  []int32 // by term number
}

type groupSlot struct {
	gen uint32
	id  int32
}

// grouperKeepSlots is the largest table that goes back to the pool.
const grouperKeepSlots = 1 << 16

var grouperPool = sync.Pool{New: func() any { return &grouper{seed: maphash.MakeSeed()} }}

// field counts toks, a field's token stream, by term, numbering the distinct
// terms in first-occurrence order; the field costs one allocation however
// many terms it has.
func (g *grouper) field(name string, boost float64, toks []string) PreparedField {
	pf := PreparedField{Name: name, Boost: boost, Len: len(toks)}
	if len(toks) == 0 {
		return pf
	}
	g.gen++
	if need := 2 * len(toks); len(g.slots) < need || g.gen == 0 {
		size := max(64, len(g.slots))
		for size < need {
			size *= 2
		}
		g.slots, g.gen = make([]groupSlot, size), 1
	}
	slots, mask := g.slots, uint64(len(g.slots)-1)
	counts, first := g.counts[:0], g.first[:0]
	for i, t := range toks {
		h := maphash.String(g.seed, t) & mask
		for slots[h].gen == g.gen && toks[first[slots[h].id]] != t {
			h = (h + 1) & mask
		}
		if slots[h].gen != g.gen {
			slots[h] = groupSlot{gen: g.gen, id: int32(len(counts))}
			counts, first = append(counts, 0), append(first, int32(i))
		}
		counts[slots[h].id]++
	}
	pf.Terms = make([]PreparedTerm, len(counts))
	for id, c := range counts {
		pf.Terms[id] = PreparedTerm{Term: toks[first[id]], Freq: int(c)}
	}
	g.counts, g.first = counts, first
	if len(g.slots) > grouperKeepSlots {
		g.slots = nil
	}
	return pf
}

// Add indexes doc. Re-adding an existing ID replaces the old version: the
// old doc slot is tombstoned exactly as Remove would and the new version
// takes a fresh slot, so a re-add costs what the document holds, not what
// the index holds. The tombstoned slot's postings linger until the automatic
// compaction rule reclaims them (see CompactTombstones); queries skip them
// meanwhile. Add is Prepare + AddPrepared.
func (ix *Index) Add(doc Document) {
	ix.AddPrepared(Prepare(doc))
}

// AddPrepared indexes a document analyzed earlier with Prepare, holding the
// lock only for the merge: a doc slot, the field length statistics, and one
// posting per (term, field). A term's list gains the document's postings in
// field order, adjacent, as the query kernel requires (see searchLocked).
func (ix *Index) AddPrepared(doc PreparedDoc) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if old, ok := ix.byExt[doc.ID]; ok {
		ix.tombstoneLocked(old)
	}
	n := len(ix.extIDs)
	ix.extIDs = append(ix.extIDs, doc.ID)
	ix.byExt[doc.ID] = n
	ix.dead = append(ix.dead, false)
	top := -1
	for _, f := range doc.Fields {
		fn, ok := ix.fieldNum[f.Name]
		if !ok {
			fn = len(ix.fields)
			ix.fieldNum[f.Name] = fn
			ix.fields = append(ix.fields, fieldStats{name: f.Name, boost: f.Boost})
		}
		top = max(top, fn)
	}
	var lens []int // by field number, up to the highest the document has
	if top >= 0 {
		lens = make([]int, top+1)
	}
	for _, f := range doc.Fields {
		fn := ix.fieldNum[f.Name]
		lens[fn] += f.Len
		ix.fields[fn].totalLen += f.Len
		for _, t := range f.Terms {
			term := t.Term
			ps, known := ix.postings[term]
			if !known {
				// A token is a cut of its field's text, and a map key lives
				// as long as the term does: keep the term, not the text.
				term = strings.Clone(term)
			}
			ix.postings[term] = append(ps, posting{doc: int32(n), field: int32(fn), freq: int32(t.Freq)})
		}
	}
	ix.docLens = append(ix.docLens, lens)
	ix.epoch.Add(1)
	ix.maybeCompactLocked()
}

// tombstoneLocked takes doc slot n out of retrieval and out of the corpus
// statistics, reporting whether it was live.
func (ix *Index) tombstoneLocked(n int) bool {
	if ix.dead[n] {
		return false
	}
	for f, l := range ix.docLens[n] {
		ix.fields[f].totalLen -= l
	}
	ix.docLens[n] = nil
	ix.dead[n] = true
	ix.ndead++
	return true
}

// Epoch returns the index's mutation counter; it advances on every add and
// on every removal of a live document.
func (ix *Index) Epoch() uint64 {
	return ix.epoch.Load()
}

// Postings returns the total number of posting entries held, a proxy for
// the index's memory footprint (the index.postings gauge).
func (ix *Index) Postings() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, ps := range ix.postings {
		n += len(ps)
	}
	return n
}

// Terms returns the number of distinct terms with postings.
func (ix *Index) Terms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// Len returns the number of live (non-removed) documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.extIDs) - ix.ndead
}

// Has reports whether a live document with the given external ID is indexed.
func (ix *Index) Has(id string) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n, ok := ix.byExt[id]
	return ok && !ix.dead[n]
}

// Remove drops the document from retrieval (§7.3: pages disappear) and
// shrinks the corpus statistics immediately: the doc's field lengths leave
// the per-field totals and it stops counting toward ndocs, so BM25 scores
// after a removal are bit-identical to an index that never held the doc.
// The doc-number slot itself is tombstoned and its postings linger until
// enough tombstones accumulate to trigger compaction (see
// CompactTombstones); queries skip them meanwhile. Removing an unknown ID
// is a no-op; re-Adding the ID indexes it afresh.
func (ix *Index) Remove(id string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if n, ok := ix.byExt[id]; ok && ix.tombstoneLocked(n) {
		ix.epoch.Add(1)
		ix.maybeCompactLocked()
	}
}

// Tombstones returns the number of doc slots — removed documents and
// replaced versions of re-added ones — not yet reclaimed by compaction.
func (ix *Index) Tombstones() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.ndead
}

// compactMinTombstones and compactFraction gate automatic compaction: it
// runs once at least 64 tombstones have accumulated AND they make up at
// least 1/8 of all doc slots, after a removal or a re-add. Small indexes
// under churn compact eagerly enough, large ones amortize the O(postings)
// sweep; between compactions slots stay under 8/7 of the live documents
// plus 64.
const (
	compactMinTombstones = 64
	compactFraction      = 8
)

func (ix *Index) maybeCompactLocked() {
	if ix.ndead >= compactMinTombstones &&
		ix.ndead*compactFraction >= len(ix.extIDs) {
		ix.compactLocked()
	}
}

// CompactTombstones reclaims all tombstoned doc slots immediately:
// postings of removed docs are physically deleted and live docs are
// renumbered densely. Renumbering preserves the relative order of live
// docs and of each doc's postings, so scores stay bit-identical; no epoch
// bump because retrieval output is unchanged.
func (ix *Index) CompactTombstones() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.ndead > 0 {
		ix.compactLocked()
	}
}

func (ix *Index) compactLocked() {
	// Dense renumbering in old doc-number order keeps posting lists and
	// extIDs in their original relative order.
	renum := make([]int32, len(ix.extIDs))
	live := 0
	for n := range ix.extIDs {
		if ix.dead[n] {
			renum[n] = -1
			continue
		}
		renum[n] = int32(live)
		ix.extIDs[live] = ix.extIDs[n]
		ix.docLens[live] = ix.docLens[n]
		live++
	}
	ix.extIDs = ix.extIDs[:live]
	ix.docLens = ix.docLens[:live]
	ix.byExt = make(map[string]int, live)
	for n, id := range ix.extIDs {
		ix.byExt[id] = n
	}
	for t, ps := range ix.postings {
		kept := ps[:0]
		for _, p := range ps {
			if m := renum[p.doc]; m >= 0 {
				p.doc = m
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(ix.postings, t)
		} else {
			ix.postings[t] = kept
		}
	}
	ix.dead = make([]bool, live)
	ix.ndead = 0
	ix.ranks.Store(nil)
}

// DF returns the document frequency of the query term (after normalization).
func (ix *Index) DF(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	toks := tokenize(term)
	if len(toks) == 0 {
		return 0
	}
	return ix.df(toks[0])
}

// df counts the live documents holding t. A document's postings for one term
// are adjacent (see searchLocked), so distinct documents are counted as runs.
func (ix *Index) df(t string) int {
	ps := ix.postings[t]
	n, last := 0, int32(-1)
	for i := range ps {
		if d := ps[i].doc; d != last {
			last = d
			if !ix.dead[d] {
				n++
			}
		}
	}
	return n
}

// Result is one ranked retrieval hit.
type Result struct {
	ID    string
	Score float64
}
