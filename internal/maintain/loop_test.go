package maintain

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"conceptweb/internal/obs"
	"conceptweb/woc"
)

// fakeSys is a scheduling-only System: Refresh records the cohort and
// applies gone/resurrection transitions to the page set, without any store.
type fakeSys struct {
	mu         sync.Mutex
	pages      map[string]bool
	gone       map[string]bool
	dirty      map[string]bool // next refresh of this URL reports an updated record
	calls      [][]string
	reconciled []string // concepts passed to Reconcile, in call order
	err        error
}

func newFakeSys(urls ...string) *fakeSys {
	f := &fakeSys{pages: map[string]bool{}, gone: map[string]bool{}, dirty: map[string]bool{}}
	for _, u := range urls {
		f.pages[u] = true
	}
	return f
}

func (f *fakeSys) PageURLs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.pages))
	for u := range f.pages {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func (f *fakeSys) Refresh(urls []string) (woc.RefreshStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, append([]string(nil), urls...))
	if f.err != nil {
		return woc.RefreshStats{}, f.err
	}
	st := woc.RefreshStats{PagesChecked: len(urls)}
	for _, u := range urls {
		switch {
		case f.gone[u]:
			if f.pages[u] {
				delete(f.pages, u)
				st.PagesGone++
			} else {
				st.PagesChecked-- // not stored, still unfetchable
			}
		case !f.pages[u]:
			f.pages[u] = true // resurrection: fetch succeeded again
			st.PagesChanged++
		case f.dirty[u]:
			delete(f.dirty, u) // content changed: a record absorbed new evidence
			st.PagesChanged++
			st.RecordsUpdated++
		default:
			st.PagesUnchanged++
		}
	}
	return st, nil
}

func (f *fakeSys) Reconcile(concept string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reconciled = append(f.reconciled, concept)
	return 1
}

func (f *fakeSys) reconcileCalls() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.reconciled...)
}

func (f *fakeSys) setDirty(u string) {
	f.mu.Lock()
	f.dirty[u] = true
	f.mu.Unlock()
}

func (f *fakeSys) setGone(u string, gone bool) {
	f.mu.Lock()
	f.gone[u] = gone
	f.mu.Unlock()
}

// TestLoopCohortRotation pins the scheduling order: never-checked URLs
// first in URL order, then strict oldest-first rotation across passes.
func TestLoopCohortRotation(t *testing.T) {
	sys := newFakeSys("p00", "p01", "p02", "p03", "p04", "p05", "p06", "p07", "p08", "p09")
	l := NewLoop(sys, Options{Batch: 4})
	for i := 0; i < 3; i++ {
		if _, err := l.RunPass(); err != nil {
			t.Fatal(err)
		}
	}
	want := [][]string{
		{"p00", "p01", "p02", "p03"},
		{"p04", "p05", "p06", "p07"},
		{"p08", "p09", "p00", "p01"}, // wraps to the stalest two
	}
	if !reflect.DeepEqual(sys.calls, want) {
		t.Fatalf("cohorts = %v, want %v", sys.calls, want)
	}
}

// TestLoopSweepCounting: a sweep completes when every URL known at sweep
// start has been refreshed since, regardless of batch boundaries.
func TestLoopSweepCounting(t *testing.T) {
	sys := newFakeSys("p00", "p01", "p02", "p03", "p04", "p05", "p06", "p07", "p08", "p09")
	l := NewLoop(sys, Options{Batch: 4})
	wantSweeps := []uint64{0, 0, 1, 1, 1, 2} // 10 urls / batch 4
	for i, want := range wantSweeps {
		if _, err := l.RunPass(); err != nil {
			t.Fatal(err)
		}
		if got := l.Status().Sweeps; got != want {
			t.Fatalf("after pass %d: sweeps = %d, want %d", i+1, got, want)
		}
	}
	if st := l.Status(); st.Passes != 6 || st.PagesTracked != 10 {
		t.Fatalf("status = %+v", st)
	}
}

// TestLoopGoneProbeBudget: a vanished URL stays in rotation for GoneRetries
// probe passes, then falls out; resurrection within the budget re-adopts it.
func TestLoopGoneProbeBudget(t *testing.T) {
	sys := newFakeSys("a", "b", "c")
	l := NewLoop(sys, Options{Batch: 10, GoneRetries: 2})

	sys.setGone("b", true)
	if _, err := l.RunPass(); err != nil { // b leaves the store, budget 2->1
		t.Fatal(err)
	}
	if st := l.Status(); st.GoneTracked != 1 || st.PagesTracked != 2 {
		t.Fatalf("after gone: %+v", st)
	}
	if _, err := l.RunPass(); err != nil { // probe fails, budget 1->0: dropped
		t.Fatal(err)
	}
	if st := l.Status(); st.GoneTracked != 0 {
		t.Fatalf("probe budget not exhausted: %+v", st)
	}
	if _, err := l.RunPass(); err != nil {
		t.Fatal(err)
	}
	last := sys.calls[len(sys.calls)-1]
	if !reflect.DeepEqual(last, []string{"a", "c"}) {
		t.Fatalf("dropped URL still probed: %v", last)
	}

	// Resurrection inside the budget: gone one pass, back the next.
	sys2 := newFakeSys("a", "b", "c")
	l2 := NewLoop(sys2, Options{Batch: 10, GoneRetries: 3})
	sys2.setGone("b", true)
	if _, err := l2.RunPass(); err != nil {
		t.Fatal(err)
	}
	sys2.setGone("b", false)
	st, err := l2.RunPass() // probe succeeds: b resurrects
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesChanged != 1 {
		t.Fatalf("resurrection not observed: %+v", st)
	}
	if s := l2.Status(); s.GoneTracked != 0 || s.PagesTracked != 3 {
		t.Fatalf("after resurrection: %+v", s)
	}
}

// TestLoopStartStop exercises the background goroutine lifecycle and the
// maintain.* metrics.
func TestLoopStartStop(t *testing.T) {
	sys := newFakeSys("a", "b", "c")
	reg := obs.NewRegistry()
	l := NewLoop(sys, Options{Interval: time.Millisecond, Batch: 2, Metrics: reg})
	l.Start()
	l.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for l.Status().Passes < 3 {
		if time.Now().After(deadline) {
			t.Fatal("loop made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	l.Stop()
	l.Stop() // idempotent
	st := l.Status()
	if st.Running {
		t.Fatal("still running after Stop")
	}
	passes := st.Passes
	time.Sleep(10 * time.Millisecond)
	if got := l.Status().Passes; got != passes {
		t.Fatalf("passes advanced after Stop: %d -> %d", passes, got)
	}
	if got := reg.Counter("maintain.passes").Value(); got != int64(passes) {
		t.Fatalf("maintain.passes = %d, want %d", got, passes)
	}
	if st.LastStats.PagesChecked == 0 || st.LastPassAt.IsZero() {
		t.Fatalf("status does not hold the last pass: %+v", st)
	}
}

// TestLoopRefreshError: a failing pass surfaces in Status and the error
// metric, and the loop keeps scheduling afterwards.
func TestLoopRefreshError(t *testing.T) {
	sys := newFakeSys("a", "b")
	reg := obs.NewRegistry()
	l := NewLoop(sys, Options{Batch: 2, Metrics: reg})
	sys.mu.Lock()
	sys.err = errBoom
	sys.mu.Unlock()
	if _, err := l.RunPass(); err == nil {
		t.Fatal("expected refresh error")
	}
	if st := l.Status(); st.LastErr == "" {
		t.Fatal("LastErr not recorded")
	}
	if reg.Counter("maintain.errors").Value() != 1 {
		t.Fatal("maintain.errors not incremented")
	}
	sys.mu.Lock()
	sys.err = nil
	sys.mu.Unlock()
	if _, err := l.RunPass(); err != nil {
		t.Fatal(err)
	}
	if st := l.Status(); st.LastErr != "" {
		t.Fatalf("LastErr sticky after recovery: %q", st.LastErr)
	}
}

// TestLoopAutoReconcile: a pass that updates or creates records triggers one
// Reconcile per configured concept, in declaration order; clean passes and
// loops with no ReconcileConcepts never call it.
func TestLoopAutoReconcile(t *testing.T) {
	sys := newFakeSys("a", "b", "c")
	reg := obs.NewRegistry()
	l := NewLoop(sys, Options{
		Batch:             10,
		ReconcileConcepts: []string{"restaurant", "hotel"},
		Metrics:           reg,
	})

	if _, err := l.RunPass(); err != nil { // nothing changed: no reconcile
		t.Fatal(err)
	}
	if got := sys.reconcileCalls(); len(got) != 0 {
		t.Fatalf("clean pass reconciled %v", got)
	}

	sys.setDirty("b")
	st, err := l.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecordsUpdated != 1 {
		t.Fatalf("dirty page did not update a record: %+v", st)
	}
	if got, want := sys.reconcileCalls(), []string{"restaurant", "hotel"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reconcile calls = %v, want %v", got, want)
	}
	s := l.Status()
	if s.Reconciles != 1 || s.LastReconciled != 2 {
		t.Fatalf("reconcile status not recorded: %+v", s)
	}
	if reg.Counter("maintain.reconcile.runs").Value() != 1 {
		t.Fatal("maintain.reconcile.runs not incremented")
	}
	if reg.Counter("maintain.reconcile.records").Value() != 2 {
		t.Fatal("maintain.reconcile.records not accumulated")
	}

	if _, err := l.RunPass(); err != nil { // back to clean: no further calls
		t.Fatal(err)
	}
	if got := sys.reconcileCalls(); len(got) != 2 {
		t.Fatalf("clean pass reconciled again: %v", got)
	}

	// No configured concepts: updates never reconcile.
	sys2 := newFakeSys("a", "b")
	l2 := NewLoop(sys2, Options{Batch: 10})
	sys2.setDirty("a")
	if _, err := l2.RunPass(); err != nil {
		t.Fatal(err)
	}
	if got := sys2.reconcileCalls(); len(got) != 0 {
		t.Fatalf("unconfigured loop reconciled %v", got)
	}
}

var errBoom = &boomError{}

type boomError struct{}

func (*boomError) Error() string { return "boom" }
