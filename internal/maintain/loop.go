// Package maintain runs the continuous incremental-maintenance loop: a
// background scheduler that keeps the web-of-concepts store converged with a
// changing corpus by feeding refresh cohorts through the builder's delta
// pipeline (core.Builder.Refresh) while the serving layer keeps answering
// reads.
//
// The loop owns only scheduling state — which URLs exist, when each was last
// checked, which vanished and still deserve resurrection probes. All data
// mutation happens inside System.Refresh, which the woc facade serializes
// against reads, so a pass is invisible to readers until it commits and
// bumps the epoch.
package maintain

import (
	"sort"
	"sync"
	"time"

	"conceptweb/internal/obs"
	"conceptweb/woc"
)

// System is the maintained surface. *woc.System satisfies it; tests
// substitute fakes to pin scheduling behavior without a real corpus.
type System interface {
	// PageURLs returns every URL currently in the page store, sorted.
	PageURLs() []string
	// Refresh re-fetches the given URLs and folds changes into the store.
	Refresh(urls []string) (woc.RefreshStats, error)
	// Reconcile re-enforces the concept's multiplicity constraints over the
	// record store, returning how many records changed.
	Reconcile(concept string) int
}

// Options configures a Loop. Zero values take the defaults below.
type Options struct {
	// Interval is the pause between passes (default 30s).
	Interval time.Duration
	// Batch is the cohort size per pass (default 64).
	Batch int
	// GoneRetries is how many passes a vanished URL stays in rotation as a
	// resurrection probe before the loop stops re-fetching it (default 3).
	GoneRetries int
	// ReconcileConcepts lists concepts whose multiplicity constraints are
	// re-enforced (System.Reconcile) after any pass that updated or created
	// records. Refresh folds new evidence into records one cohort at a time,
	// so constraint drift accumulates between full rebuilds; reconciling on
	// the write path keeps the store converged. Empty disables it.
	ReconcileConcepts []string
	// Metrics receives maintain.* instruments; nil disables them.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 30 * time.Second
	}
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.GoneRetries <= 0 {
		o.GoneRetries = 3
	}
	return o
}

// Status is a point-in-time snapshot of the loop, safe to read while a pass
// is in flight (the pass's results land after it commits).
type Status struct {
	Running bool
	// Passes counts completed refresh passes; Sweeps counts completed full
	// corpus sweeps (every page known at sweep start refreshed at least
	// once since).
	Passes uint64
	Sweeps uint64
	// Reconciles counts passes that triggered a constraint-reconcile;
	// LastReconciled is how many records the most recent one changed.
	Reconciles     uint64
	LastReconciled int
	// PagesTracked is the scheduler's view of the corpus; GoneTracked is
	// how many vanished URLs still hold a resurrection-probe budget.
	PagesTracked int
	GoneTracked  int
	LastPassAt   time.Time
	LastErr      string
	LastStats    woc.RefreshStats
}

// Loop schedules refresh cohorts oldest-first over the corpus. Create with
// NewLoop, drive manually with RunPass, or run continuously with Start/Stop.
type Loop struct {
	sys  System
	opts Options

	mu       sync.Mutex
	last     map[string]uint64 // url -> pass number of last refresh (0 = never)
	goneLeft map[string]int    // vanished url -> remaining probe budget
	pending  map[string]bool   // URLs still owed a refresh this sweep
	status   Status

	stopCh chan struct{}
	doneCh chan struct{}
}

// NewLoop creates a loop over sys; it does not start it.
func NewLoop(sys System, opts Options) *Loop {
	return &Loop{
		sys:      sys,
		opts:     opts.withDefaults(),
		last:     map[string]uint64{},
		goneLeft: map[string]int{},
		pending:  map[string]bool{},
	}
}

// Start launches the background goroutine: one pass immediately, then one
// per interval until Stop. Idempotent while running.
func (l *Loop) Start() {
	l.mu.Lock()
	if l.status.Running {
		l.mu.Unlock()
		return
	}
	l.status.Running = true
	l.stopCh = make(chan struct{})
	l.doneCh = make(chan struct{})
	stop, done := l.stopCh, l.doneCh
	l.mu.Unlock()

	go func() {
		defer close(done)
		timer := time.NewTimer(0) // first pass immediately
		defer timer.Stop()
		for {
			select {
			case <-stop:
				return
			case <-timer.C:
				l.RunPass()
				timer.Reset(l.opts.Interval)
			}
		}
	}()
}

// Stop halts the background goroutine and waits for any in-flight pass to
// finish, so the caller can tear down the system safely afterwards.
func (l *Loop) Stop() {
	l.mu.Lock()
	if !l.status.Running {
		l.mu.Unlock()
		return
	}
	l.status.Running = false
	stop, done := l.stopCh, l.doneCh
	l.mu.Unlock()
	close(stop)
	<-done
}

// Status returns a snapshot of the loop's progress.
func (l *Loop) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.status
	st.PagesTracked = len(l.last) - len(l.goneLeft)
	st.GoneTracked = len(l.goneLeft)
	return st
}

// RunPass executes one maintenance pass synchronously: pick the cohort of
// least-recently-checked URLs (never-checked first, then vanished URLs with
// probe budget, ordered by staleness), refresh it, and fold the outcome into
// scheduling state. Returns the pass's refresh stats.
func (l *Loop) RunPass() (woc.RefreshStats, error) {
	cohort, passNum := l.pickCohort()
	if len(cohort) == 0 {
		return woc.RefreshStats{}, nil
	}
	m := l.opts.Metrics
	stopTimer := m.TimeWindowed("maintain.pass")
	st, err := l.sys.Refresh(cohort)
	stopTimer()

	l.mu.Lock()
	l.status.Passes++
	l.status.LastPassAt = time.Now()
	if err != nil {
		l.status.LastErr = err.Error()
		l.mu.Unlock()
		m.Counter("maintain.errors").Inc()
		return st, err
	}
	l.status.LastErr = ""
	l.status.LastStats = st

	// Reconcile scheduling state with the store: a cohort URL that is no
	// longer stored went (or stayed) gone — it keeps a decremented probe
	// budget so resurrection is discovered, then falls out of rotation. A
	// stored cohort URL is alive; clear any probe budget (resurrected).
	stored := map[string]bool{}
	for _, u := range l.sys.PageURLs() {
		stored[u] = true
	}
	for _, u := range cohort {
		l.last[u] = passNum
		delete(l.pending, u)
		if stored[u] {
			delete(l.goneLeft, u)
			continue
		}
		budget, tracked := l.goneLeft[u]
		if !tracked {
			budget = l.opts.GoneRetries
		}
		budget--
		if budget <= 0 {
			delete(l.goneLeft, u)
			delete(l.last, u)
			delete(l.pending, u)
		} else {
			l.goneLeft[u] = budget
		}
	}
	// Pages the pass discovered (or that appeared out of band) enter the
	// current sweep; pages that left without being in the cohort (e.g. an
	// external Refresh call) stop being owed one.
	for u := range l.pending {
		if !stored[u] && l.goneLeft[u] == 0 {
			delete(l.pending, u)
		}
	}
	if len(l.pending) == 0 {
		l.status.Sweeps++
		m.Counter("maintain.sweeps").Inc()
		for u := range stored {
			l.pending[u] = true
		}
	}

	m.Counter("maintain.passes").Inc()
	l.mu.Unlock()

	// A pass that wrote records may have left a concept over its multiplicity
	// constraints (each cohort folds evidence in isolation); reconcile outside
	// the scheduler lock — System.Reconcile takes the system's own write lock
	// and Status must stay readable meanwhile.
	if st.RecordsUpdated+st.RecordsCreated > 0 && len(l.opts.ReconcileConcepts) > 0 {
		trimmed := 0
		for _, c := range l.opts.ReconcileConcepts {
			trimmed += l.sys.Reconcile(c)
		}
		m.Counter("maintain.reconcile.runs").Inc()
		m.Counter("maintain.reconcile.records").Add(int64(trimmed))
		l.mu.Lock()
		l.status.Reconciles++
		l.status.LastReconciled = trimmed
		l.mu.Unlock()
	}
	return st, nil
}

// pickCohort chooses the next Batch URLs by staleness: never-checked URLs
// first, then ascending last-checked pass, ties broken by URL so scheduling
// is deterministic. Vanished URLs with probe budget stay in rotation.
func (l *Loop) pickCohort() ([]string, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()

	known := map[string]bool{}
	for _, u := range l.sys.PageURLs() {
		known[u] = true
		if _, ok := l.last[u]; !ok {
			l.last[u] = 0 // new page: maximally stale
		}
	}
	for u := range l.goneLeft {
		known[u] = true
	}
	// Drop state for URLs that left outside the gone-probe protocol.
	for u := range l.last {
		if !known[u] {
			delete(l.last, u)
			delete(l.pending, u)
		}
	}
	if len(l.pending) == 0 { // first pass: open the initial sweep
		for u := range known {
			l.pending[u] = true
		}
	}

	cand := make([]string, 0, len(known))
	for u := range known {
		cand = append(cand, u)
	}
	sort.Slice(cand, func(i, j int) bool {
		if l.last[cand[i]] != l.last[cand[j]] {
			return l.last[cand[i]] < l.last[cand[j]]
		}
		return cand[i] < cand[j]
	})
	if len(cand) > l.opts.Batch {
		cand = cand[:l.opts.Batch]
	}
	return cand, l.status.Passes + 1
}
