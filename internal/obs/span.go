package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Spans time named stages of a computation and assemble into a trace tree:
// Start a root span, pass its context down, and each nested Start attaches a
// child. The finished tree reports where a build spent its time — the §7.3
// maintenance question of which extraction/matching stage dominates cost.

type spanKey struct{}

// Start begins a span named name. If ctx already carries a span, the new
// span is attached as its child. The returned context carries the new span
// for further nesting; call End on the span when the stage finishes.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now()}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		parent.attach(s)
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// Record attaches an already-measured child span named name and lasting d to
// the span ctx carries (a no-op without one). It is for work timed where it
// ran — summed over a background goroutine's bursts, say — that belongs in
// the tree next to the stage that waited for it.
func Record(ctx context.Context, name string, d time.Duration) {
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		parent.attach(&Span{name: name, start: time.Now().Add(-d), dur: d, ended: true})
	}
}

// Span is one timed stage. Safe for concurrent child attachment.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	children []*Span
}

// Name returns the span's stage name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

func (s *Span) attach(child *Span) {
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
}

// End stops the span (idempotent) and returns its duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	return s.dur
}

// Duration returns the recorded duration (elapsed-so-far if not ended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Report freezes the span tree into a serializable trace report.
func (s *Span) Report() *TraceReport {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	d := s.dur
	if !s.ended {
		d = time.Since(s.start)
	}
	r := &TraceReport{Name: s.name, Duration: d}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		r.Children = append(r.Children, c.Report())
	}
	return r
}

// TraceReport is a finished trace tree: one node per stage.
type TraceReport struct {
	Name     string         `json:"name"`
	Duration time.Duration  `json:"duration_ns"`
	Children []*TraceReport `json:"children,omitempty"`
}

// Find returns the descendant (or self) with the given name, or nil.
func (r *TraceReport) Find(name string) *TraceReport {
	if r == nil {
		return nil
	}
	if r.Name == name {
		return r
	}
	for _, c := range r.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Table renders the tree as an aligned per-stage timing table, durations
// plus percent of the root:
//
//	stage            duration        %
//	build            1.23s      100.0%
//	  crawl          0.41s       33.3%
func (r *TraceReport) Table() string {
	if r == nil {
		return ""
	}
	type row struct {
		label string
		dur   time.Duration
	}
	var rows []row
	var walk func(n *TraceReport, depth int)
	walk = func(n *TraceReport, depth int) {
		rows = append(rows, row{strings.Repeat("  ", depth) + n.Name, n.Duration})
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(r, 0)

	width := len("stage")
	for _, rw := range rows {
		if len(rw.label) > width {
			width = len(rw.label)
		}
	}
	total := r.Duration
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %12s  %7s\n", width, "stage", "duration", "%")
	for _, rw := range rows {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(rw.dur) / float64(total)
		}
		fmt.Fprintf(&b, "%-*s  %12s  %6.1f%%\n", width, rw.label,
			rw.dur.Round(time.Microsecond), pct)
	}
	return b.String()
}
