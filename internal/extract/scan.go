package extract

import (
	"slices"
	"strings"
	"sync"

	"conceptweb/internal/textproc"
)

// Recognise once per text. A list item is read by every domain's item parser
// and a body by every domain's detail extractor, and domains share
// recognizers: the scale configuration runs phone and street in both its
// business domains and the city gazetteer in all three, and a constrained
// evidence recognizer is run by the constraint check, the evidence check, the
// span loop and the full-text fallback of one parse alone. A scanMemo, kept on the page's analysis next
// to the texts, remembers each recognizer's matches per text, so all of them
// read one scan. It is the only way non-test code runs a recognizer over
// item or body text; the per-call forms it replaced are the test oracle.

// maxScanIDs bounds the recognizer ids a scanMemo's bit sets can hold.
const maxScanIDs = 64

// scanIDs hands out the process-wide recognizer ids: recognizers built from
// the same rule — the same kernel, the same vocabulary — get the same id
// whichever domain carries them, which is what lets domains share
// scans. A registration table: it only grows, by one entry per distinct rule.
var scanIDs struct {
	mu sync.Mutex
	m  map[string]uint8
}

// scanID returns the id of the rule ident names. Past maxScanIDs-1 distinct
// rules it returns 0, the id of a recognizer whose scans are not remembered.
func scanID(ident string) uint8 {
	scanIDs.mu.Lock()
	defer scanIDs.mu.Unlock()
	if id, ok := scanIDs.m[ident]; ok {
		return id
	}
	if len(scanIDs.m) >= maxScanIDs-1 {
		return 0
	}
	if scanIDs.m == nil {
		scanIDs.m = make(map[string]uint8)
	}
	id := uint8(len(scanIDs.m) + 1)
	scanIDs.m[ident] = id
	return id
}

// scan runs the recognizer over one text whose normalization the caller
// holds: the one place a rule meets item, span or body text.
func (r *Recognizer) scan(text, norm string) (string, bool) {
	if r.MatchNorm != nil {
		return r.MatchNorm(norm)
	}
	return r.Match(text)
}

// scanMemo remembers what recognizers found in the texts of one list item
// (slot 0 its full text, slot 1+j its span j) or of one page body (slot 0).
// It is not safe for concurrent use; PageAnalysis.scanMu guards it.
//
// It is laid out for what scans mostly find. Most find nothing, and a miss
// costs one bit. Most texts that hold a value of a constrained attribute hold
// one, and "no second match" costs one more bit. Only a text with several
// matches of one recognizer — a body listing three phones — gets a matchRun.
type scanMemo struct {
	// bits holds two sets of recognizer ids per slot: at 2·slot the
	// recognizers that have looked for a first match, at 2·slot+1 those that
	// found one.
	bits   []uint64
	firsts []firstMatch
	// alone is the set of recognizers whose first match in slot 0 is known
	// to be the only one; runs are the ones known to have more.
	alone uint64
	runs  []matchRun
}

type firstMatch struct {
	slot int32
	id   uint8
	v    string
}

// first returns rec's first match in the text at slot, scanning the text
// only if rec — or its twin in another domain — has not already.
func (m *scanMemo) first(rec *Recognizer, slot int, text, norm string) (string, bool) {
	if rec.id == 0 {
		return rec.scan(text, norm)
	}
	if need := 2 * (slot + 1); len(m.bits) < need {
		m.bits = append(m.bits, make([]uint64, need-len(m.bits))...)
	}
	bit := uint64(1) << rec.id
	tried, found := &m.bits[2*slot], &m.bits[2*slot+1]
	if *tried&bit == 0 {
		*tried |= bit
		v, ok := rec.scan(text, norm)
		if ok {
			*found |= bit
			if m.firsts == nil {
				m.firsts = make([]firstMatch, 0, 8)
			}
			m.firsts = append(m.firsts, firstMatch{int32(slot), rec.id, v})
		}
		return v, ok
	}
	if *found&bit != 0 {
		for i := range m.firsts {
			if f := &m.firsts[i]; f.id == rec.id && int(f.slot) == slot {
				return f.v, true
			}
		}
	}
	return "", false
}

// matchRun is the matches of one recognizer in one text after the first:
// each found by running Match on what follows the previous match's first
// occurrence, at most 64 scans in all.
type matchRun struct {
	id    uint8
	scans uint8    // Match calls so far, the first match's included
	done  bool     // there is no further match
	more  []string // the second match onwards
	rest  string   // the text the last match was found in
}

// next extends the run by one match after last, its latest, and reports
// whether there was one. The tail is sliced, not offset: a match's leading
// \b sees the start of the tail as a boundary, as the per-call loop's did.
func (r *matchRun) next(rec *Recognizer, last string) bool {
	if r.done {
		return false
	}
	idx := strings.Index(r.rest, last)
	if idx < 0 || r.scans >= 64 {
		r.done = true
		return false
	}
	r.rest = r.rest[idx+len(last):]
	r.scans++
	v, ok := rec.Match(r.rest)
	if !ok {
		r.done = true
		return false
	}
	r.more = append(r.more, v)
	return true
}

// exceeds reports whether the slot-0 text holds more than max distinct
// normalized values of rec (§4.2's multiplicity constraints: more values
// than a record may have means the text spans several records). It looks
// only as far as the verdict needs, and no further than an earlier check of
// the same text already has.
func (m *scanMemo) exceeds(rec *Recognizer, text, norm string, max int) bool {
	v, ok := m.first(rec, 0, text, norm)
	if !ok {
		return false
	}
	if max < 1 {
		return true
	}
	remember, bit := rec.id != 0, uint64(1)<<rec.id
	if remember && m.alone&bit != 0 {
		return false
	}
	var run *matchRun
	if remember {
		for i := range m.runs {
			if m.runs[i].id == rec.id {
				run = &m.runs[i]
				break
			}
		}
	}
	if run == nil {
		// The first look past the first match. Nearly always there is
		// nothing there, and the run need not outlive the look.
		run = &matchRun{id: rec.id, scans: 1, rest: text}
		if !run.next(rec, v) {
			if remember {
				m.alone |= bit
			}
			return false
		}
		if remember {
			m.runs = append(m.runs, *run)
			run = &m.runs[len(m.runs)-1]
		}
	}
	var buf [4]string
	distinct := append(buf[:0], textproc.Normalize(v))
	for k, last := 0, v; ; k++ {
		if k == len(run.more) && !run.next(rec, last) {
			return false
		}
		last = run.more[k]
		if nv := textproc.Normalize(last); !slices.Contains(distinct, nv) {
			distinct = append(distinct, nv)
			if len(distinct) > max {
				return true
			}
		}
	}
}
