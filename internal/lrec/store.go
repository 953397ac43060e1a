package lrec

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"conceptweb/internal/framelog"
	"conceptweb/internal/obs"
	"conceptweb/internal/textproc"
)

// Store is the concept database: a map of records with secondary indexes,
// durably backed by an append-only log plus periodic snapshots. It is the
// "logically centralized and unified store that serves as the basis of query
// processing" (§6). All methods are safe for concurrent use: one RWMutex
// guards the records and their indexes.
//
// Durability model: every Put/Delete appends a framed operation to the log
// before mutating memory, and the log is fsynced on Sync/Close. Open replays
// snapshot + log; a torn final frame (crash mid-write) is truncated away so
// subsequent appends continue from the last good frame, while corruption in
// the middle of the log (valid frames after a bad one) refuses to open with
// ErrCorrupt rather than silently discarding acknowledged writes. A failed
// log write or fsync latches the store into a degraded read-only state (see
// Degraded) instead of letting memory diverge from the log.
type Store struct {
	mu   sync.RWMutex
	recs map[string]*Record
	// byConcept maps concept name -> set of record ids.
	byConcept map[string]map[string]bool
	// byAttr maps concept \x00 key \x00 normalizedValue -> the ids holding
	// it, sorted and without duplicates. Most values are held by one record,
	// so a slice costs a fraction of a per-key set.
	byAttr map[string][]string

	// seq is the logical clock: every mutation takes the next value as its
	// version, and NextSeq/AdvanceSeq hand values out for provenance stamps.
	// Replay moves it to the highest version seen, and a snapshot persists
	// it, so a reopened store never hands out a duplicate version.
	seq atomic.Uint64

	// epoch counts applied mutations; serving layers fold it into one
	// cache-invalidation epoch.
	epoch atomic.Uint64

	dir      string
	fs       framelog.FS
	logFile  framelog.File
	logW     *bufio.Writer
	walOff   int64 // bytes appended to the current log (buffered included)
	recovery RecoveryStats

	// degraded, once set, latches the store read-only: the first log write
	// or fsync failure means the log no longer reflects memory, so accepting
	// further mutations would silently widen the divergence.
	degraded error

	registry *Registry
	metrics  *obs.Registry // nil-safe; counts puts/gets/WAL appends/compactions
	walBytes *obs.Gauge    // lrec.wal_bytes; nil without metrics
}

// ErrDegraded wraps the first write/fsync error after which the store
// refuses mutations; reads keep working. Reopen the directory to recover.
var ErrDegraded = errors.New("lrec: store degraded, read-only")

// RecoveryStats reports what Open found and repaired while replaying.
type RecoveryStats struct {
	SnapshotRecords int   // live records loaded from the snapshot
	LogFrames       int   // frames replayed from the log
	TornTail        bool  // the log ended in a torn frame
	TruncatedBytes  int64 // bytes cut from the log tail to repair it
}

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithRegistry attaches a concept registry; Puts are then validated.
func WithRegistry(r *Registry) StoreOption {
	return func(s *Store) { s.registry = r }
}

// WithMetrics attaches an observability registry; the store then counts
// puts, gets, deletes, WAL appends, and compactions into it. A nil registry
// keeps the store un-instrumented.
func WithMetrics(m *obs.Registry) StoreOption {
	return func(s *Store) { s.metrics = m }
}

// withFS injects a filesystem implementation. Only the fault-injection
// tests use it (fault_test.go); Open defaults to the real filesystem.
func withFS(fs framelog.FS) StoreOption {
	return func(s *Store) { s.fs = fs }
}

// NewMemStore returns a purely in-memory store (no durability), used by
// tests and short-lived pipelines.
func NewMemStore(opts ...StoreOption) *Store {
	return newStore(opts)
}

func newStore(opts []StoreOption) *Store {
	s := &Store{
		recs:      make(map[string]*Record),
		byConcept: make(map[string]map[string]bool),
		byAttr:    make(map[string][]string),
	}
	for _, o := range opts {
		o(s)
	}
	if s.metrics != nil {
		s.walBytes = s.metrics.Gauge("lrec.wal_bytes")
	}
	return s
}

const (
	logName  = "lrec.log"
	snapName = "lrec.snap"
	// shardManifestName marks a directory written by the hash-sharded store
	// earlier builds had (lrec-NN.wal/.snap, one per partition). Open refuses
	// it rather than open an empty store beside the partitions.
	shardManifestName = "lrec.manifest"
)

// Open opens (or creates) a durable store in dir, replaying any snapshot and
// log found there. A snapshot is sealed (written whole, then renamed into
// place), so any bad frame in it fails the open. A torn log tail (crash
// mid-append) is truncated to the last good frame before the log is reopened
// for appending, so new writes never land after bad bytes — the bug class
// where replay would stop at the old tear forever and silently drop
// everything written after it. Mid-log corruption (a bad frame with valid
// frames after it) fails with ErrCorrupt. Recovery details are available
// from Recovery().
func Open(dir string, opts ...StoreOption) (*Store, error) {
	s := newStore(opts)
	s.dir = dir
	if s.fs == nil {
		s.fs = framelog.OS{}
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lrec: open: %w", err)
	}
	if f, err := s.fs.Open(filepath.Join(dir, shardManifestName)); err == nil {
		f.Close()
		return nil, fmt.Errorf("lrec: open %s: it holds %s, a hash-sharded store this build no longer reads: rebuild the system with wocbuild -out", dir, shardManifestName)
	}
	if _, err := framelog.Replay(s.fs, filepath.Join(dir, snapName), true, s.replayFrame); err != nil {
		return nil, fmt.Errorf("lrec: replay snapshot: %w", err)
	}
	s.recovery.SnapshotRecords = len(s.recs) // a snapshot holds one put per live record
	logPath := filepath.Join(dir, logName)
	rec, err := framelog.Replay(s.fs, logPath, false, s.replayFrame)
	if err != nil {
		return nil, fmt.Errorf("lrec: replay log: %w", err)
	}
	s.recovery.LogFrames = rec.Frames
	s.recovery.TornTail = rec.TornTail
	s.recovery.TruncatedBytes = rec.TruncatedBytes
	if rec.TornTail {
		s.metrics.Counter("lrec.recovery.torn_tails").Inc()
		s.metrics.Counter("lrec.recovery.truncated_bytes").Add(rec.TruncatedBytes)
	}
	f, err := s.fs.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lrec: open log: %w", err)
	}
	// Make the (possibly just-created) log's directory entry durable.
	if err := s.fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("lrec: open: sync dir: %w", err)
	}
	s.logFile = f
	s.logW = bufio.NewWriter(f)
	s.setWALBytes(rec.Size)
	return s, nil
}

// replayFrame decodes and applies one replayed operation and advances the
// clock. opSeq frames carry only a Version and exist purely to advance it.
func (s *Store) replayFrame(_ int64, payload []byte) error {
	op, r, err := decodeOp(payload)
	if err != nil {
		return err
	}
	switch op {
	case opPut:
		s.applyPut(r)
	case opDelete:
		s.applyDelete(r.ID)
	}
	if r.Version > s.seq.Load() {
		s.seq.Store(r.Version)
	}
	return nil
}

// Recovery reports what the Open that produced this store found and
// repaired: snapshot/log frame counts and any torn-tail truncation.
func (s *Store) Recovery() RecoveryStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recovery
}

// Epoch returns the store's mutation counter; it advances on every applied
// Put and Delete.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Degraded returns nil while the store accepts writes, or the latched error.
func (s *Store) Degraded() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.degradedErrLocked()
}

func (s *Store) degradedErrLocked() error {
	if s.degraded == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrDegraded, s.degraded)
}

// latch records the first write-path failure and flips the store read-only.
// Caller holds mu.
func (s *Store) latch(err error) {
	if s.degraded == nil {
		s.degraded = err
		s.metrics.Gauge("lrec.degraded").Add(1)
	}
}

// LatchReadOnly flips the store into the degraded read-only state, as if its
// first log write had failed with cause. Reads keep working; every
// subsequent Put/Delete returns ErrDegraded. Intended for fault-injection
// tests of layers above the store that must stay consistent when writes
// start failing; there is no un-latch, matching the real failure path.
func (s *Store) LatchReadOnly(cause error) {
	s.mu.Lock()
	s.latch(cause)
	s.mu.Unlock()
}

// NextSeq atomically advances and returns the store's logical clock,
// used to stamp provenance.
func (s *Store) NextSeq() uint64 {
	return s.seq.Add(1)
}

// AdvanceSeq atomically reserves n consecutive values of the logical clock
// and returns the last one: the reserved range is [ret-n+1, ret]. Callers
// that stamp a batch of provenance entries (the resolve stage's candidate
// fold) reserve once instead of taking the atomic per value, and the counter
// ends exactly where n NextSeq calls would have left it.
func (s *Store) AdvanceSeq(n uint64) uint64 {
	return s.seq.Add(n)
}

// validatePut checks the parts of Put that do not need any lock.
func (s *Store) validatePut(r *Record) error {
	if r.ID == "" {
		return ErrNoID
	}
	if r.Concept == "" {
		return ErrNoConcept
	}
	if s.registry != nil {
		// Only concept existence is checked at write time; multiplicity
		// constraints are tolerated and resolved later by reconciliation
		// (§7.3 tolerate-then-reconcile), via Registry.Validate.
		if _, ok := s.registry.Lookup(r.Concept); !ok {
			return fmt.Errorf("%w: %q", ErrUnknownConcept, r.Concept)
		}
	}
	return nil
}

// Put inserts or replaces the record with r.ID. The stored copy is
// independent of r. Version is assigned by the store, under the lock, so the
// logged versions are monotonic. The operation is logged before memory is
// mutated: if the log write fails, the store state is unchanged and the
// store latches read-only (ErrDegraded on later writes) rather than letting
// memory diverge from the log.
func (s *Store) Put(r *Record) error {
	if err := s.validatePut(r); err != nil {
		return err
	}
	cp := r.Clone()
	cp.Deleted = false
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.degradedErrLocked(); err != nil {
		return err
	}
	cp.Version = s.seq.Add(1)
	return s.putLocked(cp)
}

// PutBatch stores recs and returns a per-record error slice. The copies and
// their versions are made serially in input order before the lock is taken,
// so the store state — version numbers included — is what a serial Put loop
// leaves; the lock is then taken once for the whole batch. A log failure
// mid-batch latches the store, and the remaining records fail with
// ErrDegraded.
func (s *Store) PutBatch(recs []*Record) []error {
	errs := make([]error, len(recs))
	clones := make([]*Record, len(recs))
	for i, r := range recs {
		if errs[i] = s.validatePut(r); errs[i] != nil {
			continue
		}
		cp := r.Clone()
		cp.Deleted = false
		cp.Version = s.seq.Add(1)
		clones[i] = cp
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, cp := range clones {
		if cp == nil {
			continue
		}
		if errs[i] = s.degradedErrLocked(); errs[i] == nil {
			errs[i] = s.putLocked(cp)
		}
	}
	return errs
}

// putLocked logs and applies a clone whose Version is already assigned.
// Caller holds mu.
func (s *Store) putLocked(cp *Record) error {
	if err := s.logOp(opPut, cp); err != nil {
		s.latch(err)
		return err
	}
	s.applyPut(cp)
	s.epoch.Add(1)
	// Counted after validation and logging so rejected or failed puts do
	// not inflate the metric.
	s.metrics.Counter("lrec.puts").Inc()
	return nil
}

// applyPut installs cp into maps and indexes; caller holds mu.
func (s *Store) applyPut(cp *Record) {
	if old, ok := s.recs[cp.ID]; ok {
		s.unindex(old)
	}
	s.recs[cp.ID] = cp
	s.indexRec(cp)
}

// Delete removes the record (a tombstone is logged so replay converges).
// Like Put, the tombstone is logged before memory changes; a failed log
// write leaves the record in place and latches the store read-only.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.degradedErrLocked(); err != nil {
		return err
	}
	old, ok := s.recs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	tomb := &Record{ID: id, Concept: old.Concept, Version: s.seq.Add(1), Deleted: true}
	if err := s.logOp(opDelete, tomb); err != nil {
		s.latch(err)
		return err
	}
	s.applyDelete(id)
	s.epoch.Add(1)
	// Counted after the not-found check so rejected deletes don't inflate
	// the metric.
	s.metrics.Counter("lrec.deletes").Inc()
	return nil
}

func (s *Store) applyDelete(id string) {
	old, ok := s.recs[id]
	if !ok {
		return
	}
	s.unindex(old)
	delete(s.recs, id)
}

func (s *Store) logOp(op byte, r *Record) error {
	if s.logW == nil {
		return nil
	}
	n, err := s.logW.Write(encodeOp(op, r))
	if err != nil {
		return fmt.Errorf("lrec: log write: %w", err)
	}
	s.setWALBytes(s.walOff + int64(n))
	s.metrics.Counter("lrec.wal.appends").Inc()
	return nil
}

func (s *Store) setWALBytes(n int64) {
	s.walOff = n
	if s.walBytes != nil {
		s.walBytes.Set(n)
	}
}

func attrKey(concept, key, normVal string) string {
	return concept + "\x00" + key + "\x00" + normVal
}

func (s *Store) indexRec(r *Record) {
	set := s.byConcept[r.Concept]
	if set == nil {
		set = make(map[string]bool)
		s.byConcept[r.Concept] = set
	}
	set[r.ID] = true
	for k, vals := range r.Attrs {
		for _, v := range vals {
			ak := attrKey(r.Concept, k, textproc.Normalize(v.Value))
			ids := s.byAttr[ak]
			if i, found := slices.BinarySearch(ids, r.ID); !found {
				s.byAttr[ak] = slices.Insert(ids, i, r.ID)
			}
		}
	}
}

func (s *Store) unindex(r *Record) {
	if set := s.byConcept[r.Concept]; set != nil {
		delete(set, r.ID)
		if len(set) == 0 {
			delete(s.byConcept, r.Concept)
		}
	}
	for k, vals := range r.Attrs {
		for _, v := range vals {
			ak := attrKey(r.Concept, k, textproc.Normalize(v.Value))
			ids := s.byAttr[ak]
			i, found := slices.BinarySearch(ids, r.ID)
			switch {
			case !found: // a second value normalizing to the same key
			case len(ids) == 1:
				delete(s.byAttr, ak)
			default:
				s.byAttr[ak] = slices.Delete(ids, i, i+1)
			}
		}
	}
}

// Get returns a copy of the record with the given id.
func (s *Store) Get(id string) (*Record, error) {
	r, err := s.View(id)
	if err != nil {
		return nil, err
	}
	return r.Clone(), nil
}

// View returns the installed record with the given id itself — the read the
// query path uses to filter and score without copying. The reference is
// shared with the store and with other readers and must not be mutated;
// Clone whatever is handed on to a caller that may. It stays valid and
// unchanged after a later Put or Delete of the id, which install a new
// record rather than editing this one.
func (s *Store) View(id string) (*Record, error) {
	s.metrics.Counter("lrec.gets").Inc()
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.recs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return r, nil
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// ByConcept returns copies of all records of the concept, sorted by ID.
func (s *Store) ByConcept(concept string) []*Record {
	out := s.ViewByConcept(concept)
	for i, r := range out {
		out[i] = r.Clone()
	}
	return out
}

// ViewByConcept is ByConcept without the copies: the installed records
// themselves, sorted by ID, under View's must-not-mutate contract.
func (s *Store) ViewByConcept(concept string) []*Record {
	s.mu.RLock()
	set := s.byConcept[concept]
	out := make([]*Record, 0, len(set))
	for id := range set {
		out = append(out, s.recs[id])
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CountByConcept returns the number of live records of the concept.
func (s *Store) CountByConcept(concept string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byConcept[concept])
}

// ByAttr returns copies of the concept's records having the given attribute
// value (compared after normalization), sorted by ID.
func (s *Store) ByAttr(concept, key, value string) []*Record {
	out := s.ViewByAttr(concept, key, value)
	for i, r := range out {
		out[i] = r.Clone()
	}
	return out
}

// ViewByAttr is ByAttr without the copies: the installed records themselves,
// sorted by ID (the attribute index keeps its IDs sorted), under View's
// must-not-mutate contract.
func (s *Store) ViewByAttr(concept, key, value string) []*Record {
	ak := attrKey(concept, key, textproc.Normalize(value))
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.byAttr[ak]
	out := make([]*Record, len(ids))
	for i, id := range ids {
		out[i] = s.recs[id]
	}
	return out
}

// Scan calls fn for every live record in sorted-ID order. fn receives a
// shared reference for speed and must not mutate it; return false to stop.
// The read lock is held for the duration, so the scan observes one
// consistent cut of the store.
func (s *Store) Scan(fn func(*Record) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.recs))
	for id := range s.recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !fn(s.recs[id]) {
			return
		}
	}
}

// Concepts returns the concept names with at least one live record, sorted.
func (s *Store) Concepts() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.byConcept))
	for c := range s.byConcept {
		out = append(out, c)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Sync flushes buffered log writes to the OS and fsyncs the log file. Only
// mutations acknowledged by a successful Sync (or Close) are guaranteed to
// survive a crash. A flush or fsync failure latches the store read-only:
// after a failed fsync the kernel may have dropped the dirty pages, so
// pretending later syncs can succeed would break the durability contract.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.degradedErrLocked(); err != nil {
		return err
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.logW == nil {
		return nil
	}
	if err := s.logW.Flush(); err != nil {
		s.latch(err)
		return fmt.Errorf("lrec: sync: %w", err)
	}
	if err := s.logFile.Sync(); err != nil {
		s.latch(err)
		return fmt.Errorf("lrec: sync: %w", err)
	}
	return nil
}

// Compact writes a snapshot of the live records and truncates the log,
// bounding recovery time. Safe to call at any point between mutations, and
// crash-safe at every step: temp file, fsync, rename, directory fsync, and
// the old log handle stays open until the fresh log exists.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	if err := s.degradedErrLocked(); err != nil {
		return err
	}
	// The clock goes first: the snapshot holds only live records, so if the
	// newest mutation was a Delete its tombstone's version would otherwise
	// be lost and a reopened store would hand out duplicate versions. The
	// log is replaced only after WriteFile has made the rename durable.
	clock := s.seq.Load()
	err := framelog.WriteFile(s.fs, filepath.Join(s.dir, snapName), func(w io.Writer) error {
		if _, err := w.Write(encodeOp(opSeq, &Record{Version: clock})); err != nil {
			return err
		}
		ids := make([]string, 0, len(s.recs))
		for id := range s.recs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if _, err := w.Write(encodeOp(opPut, s.recs[id])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("lrec: compact: %w", err)
	}
	// The log is now redundant; replace it. Create the fresh log before
	// releasing the old handle: if Create fails, appends continue on the
	// old log, which remains correct (snapshot + old log replays to the
	// same state).
	f2, err := s.fs.Create(filepath.Join(s.dir, logName))
	if err != nil {
		return fmt.Errorf("lrec: compact: %w", err)
	}
	if s.logFile != nil {
		// Buffered frames are already captured by the snapshot and the log
		// they belong to is obsolete; close errors change nothing durable.
		s.logFile.Close()
	}
	s.logFile = f2
	s.logW = bufio.NewWriter(f2)
	s.setWALBytes(0)
	s.metrics.Counter("lrec.compactions").Inc()
	return nil
}

// Close flushes and closes the store's files. The store must not be used
// afterwards. File handles are released even on error; a degraded store
// skips the final sync (its log tail is already suspect and will be handled
// as a torn tail on the next Open) and reports the latched error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logW == nil {
		return nil
	}
	degraded := s.degradedErrLocked()
	var syncErr error
	if degraded == nil {
		syncErr = s.syncLocked()
	}
	closeErr := s.logFile.Close()
	s.logFile = nil
	s.logW = nil
	switch {
	case degraded != nil:
		return degraded
	case syncErr != nil:
		return syncErr
	case closeErr != nil:
		return fmt.Errorf("lrec: close: %w", closeErr)
	}
	return nil
}
