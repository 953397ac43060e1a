package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. The benchmark records spans
// from its own code, around the calls into each layer; the program under test
// is not instrumented.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	TraceID int64  `json:"trace_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxSpans bounds what a traced run keeps in memory: serve.hot completes
// millions of operations per run. Spans past the bound are counted, not kept;
// per-layer metrics come from running totals, so they cover every operation.
const maxSpans = 60000

// tracer collects spans in memory and writes them out when the run ends. A
// nil *tracer records nothing: the untraced run.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so that children can name their parent before the
// parent has ended.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) record(id, parent, traceID int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, TraceID: traceID, Name: name,
			StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// selfTimes returns, per span name, the total self time in nanoseconds: each
// span's duration minus the part of its interval that its child spans cover.
// Children may overlap (the refresh fetcher runs on several workers), so the
// covered part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.EndNS - s.StartNS - covered
	}
	return self
}

// write stores the spans as out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string           `json:"workload"`
		Dropped  int64            `json:"spans_dropped"`
		SelfNS   map[string]int64 `json:"self_ns_by_name"`
		Spans    []span           `json:"spans"`
	}{workload, t.dropped, selfTimes(t.spans), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
