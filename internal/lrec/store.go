package lrec

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"conceptweb/internal/framelog"
	"conceptweb/internal/obs"
	"conceptweb/internal/shard"
	"conceptweb/internal/textproc"
)

// Store is the concept database: a map of records with secondary indexes,
// durably backed by an append-only log plus periodic snapshots. It is the
// "logically centralized and unified store that serves as the basis of query
// processing" (§6). All methods are safe for concurrent use.
//
// Internally the store is hash-partitioned into N shards (see WithShards),
// each with its own WAL file, snapshot, mutex, and degraded latch; record
// IDs route to shards with hash(id) % N and the count is pinned in a
// directory manifest so a reopen always routes an ID to the shard that
// logged it. N = 1 (the default) reproduces the pre-sharding single-file
// layout byte for byte, so existing directories open unchanged. Version
// numbers come from one store-wide clock regardless of shard count.
//
// Durability model: every Put/Delete appends a framed operation to its
// shard's log before mutating memory, and logs are fsynced on Sync/Close.
// Open replays snapshot + log per shard; a torn final frame (crash
// mid-write) is truncated away so subsequent appends continue from the last
// good frame, while corruption in the middle of a log (valid frames after a
// bad one) refuses to open with ErrCorrupt rather than silently discarding
// acknowledged writes. A failed log write or fsync latches only the failing
// shard into a degraded read-only state (see Degraded) instead of letting
// memory diverge from the log; sibling shards keep accepting writes.
type Store struct {
	shards []*shardEngine

	// seq is the store-wide logical clock; it advances on every mutation
	// no matter which shard it lands on, so versions stay totally ordered
	// (and deterministic) across any shard count.
	seq atomic.Uint64

	dir      string
	fs       framelog.FS
	registry *Registry
	metrics  *obs.Registry // nil-safe; counts puts/gets/WAL appends/compactions
	nshards  int           // requested via WithShards; 0 = unspecified (manifest or 1)
}

// ErrDegraded wraps the first write/fsync error after which a shard
// refuses mutations; reads keep working. Reopen the directory to recover.
var ErrDegraded = errors.New("lrec: store degraded, read-only")

// RecoveryStats reports what Open found and repaired while replaying.
// For a sharded store the counts are aggregated across shards; use
// ShardStates for the per-shard breakdown.
type RecoveryStats struct {
	SnapshotRecords int   // live records loaded from the snapshot(s)
	LogFrames       int   // frames replayed from the log(s)
	TornTail        bool  // at least one log ended in a torn frame
	TruncatedBytes  int64 // bytes cut from log tails to repair them
}

// ShardState is the per-shard view surfaced through health endpoints: which
// partition, how much data it holds, whether it is latched read-only, and
// what its Open repaired.
type ShardState struct {
	Shard    int
	Records  int
	Degraded string // empty while the shard accepts writes
	Recovery RecoveryStats
	WALBytes int64
	Epoch    uint64
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

// WithShards partitions the store into n hash-routed shards, each with its
// own WAL and mutex. n <= 1 keeps the pre-sharding single-file layout. For
// a durable store the count is pinned by the directory manifest on first
// create: reopening with a conflicting explicit count fails rather than
// scattering records across the wrong partitions, and n = 0 (the default)
// means "whatever the directory already is".
func WithShards(n int) StoreOption {
	return func(s *Store) { s.nshards = n }
}

// withFS injects a filesystem implementation. Only the fault-injection
// tests use it (fault_test.go); Open defaults to the real filesystem.
func withFS(fs framelog.FS) StoreOption {
	return func(s *Store) { s.fs = fs }
}

// NewMemStore returns a purely in-memory store (no durability), used by
// tests and short-lived pipelines.
func NewMemStore(opts ...StoreOption) *Store {
	s := &Store{}
	for _, o := range opts {
		o(s)
	}
	n := s.nshards
	if n < 1 {
		n = 1
	}
	s.buildShards(n)
	return s
}

const (
	logName  = "lrec.log"
	snapName = "lrec.snap"
)

// shardFileNames returns the log and snapshot file names for shard i of n.
// A single shard keeps the historical names so pre-sharding directories
// stay byte-compatible in both directions.
func shardFileNames(n, i int) (log, snap string) {
	if n == 1 {
		return logName, snapName
	}
	return fmt.Sprintf("lrec-%02d.wal", i), fmt.Sprintf("lrec-%02d.snap", i)
}

func (s *Store) buildShards(n int) {
	s.shards = make([]*shardEngine, n)
	for i := range s.shards {
		sh := newShard(i, s)
		sh.logName, sh.snapName = shardFileNames(n, i)
		s.shards[i] = sh
	}
}

// shardFor routes a record ID to its shard.
func (s *Store) shardFor(id string) *shardEngine {
	return s.shards[shard.Of(id, len(s.shards))]
}

// Open opens (or creates) a durable store in dir, replaying any snapshot and
// log found there. The shard count is resolved from the directory manifest
// (or the legacy single-file layout) before any shard is touched; see
// WithShards. Shards replay concurrently. A torn log tail (crash mid-append)
// is truncated to the last good frame before that shard's log is reopened
// for appending, so new writes never land after bad bytes — the bug class
// where replay would stop at the old tear forever and silently drop
// everything written after it. Mid-log corruption (a bad frame with valid
// frames after it) fails with ErrCorrupt. Recovery details are available
// from Recovery() and, per shard, ShardStates().
func Open(dir string, opts ...StoreOption) (*Store, error) {
	s := &Store{}
	for _, o := range opts {
		o(s)
	}
	s.dir = dir
	if s.fs == nil {
		s.fs = framelog.OS{}
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lrec: open: %w", err)
	}
	n, err := resolveShardCount(s.fs, dir, s.nshards)
	if err != nil {
		return nil, err
	}
	s.buildShards(n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shardEngine) {
			defer wg.Done()
			errs[i] = sh.open(dir)
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// Release whatever did open; the store is not returned.
			for _, sh := range s.shards {
				sh.closeShard()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	var max uint64
	for _, sh := range s.shards {
		if sh.seq > max {
			max = sh.seq
		}
	}
	s.seq.Store(max)
	return s, nil
}

// Recovery reports what the Open that produced this store found and
// repaired, aggregated across shards: snapshot/log frame counts and any
// torn-tail truncation.
func (s *Store) Recovery() RecoveryStats {
	var agg RecoveryStats
	for _, sh := range s.shards {
		sh.mu.RLock()
		r := sh.recovery
		sh.mu.RUnlock()
		agg.SnapshotRecords += r.SnapshotRecords
		agg.LogFrames += r.LogFrames
		agg.TornTail = agg.TornTail || r.TornTail
		agg.TruncatedBytes += r.TruncatedBytes
	}
	return agg
}

// NumShards returns the store's shard count (1 for unsharded).
func (s *Store) NumShards() int { return len(s.shards) }

// ShardStates returns the per-shard health view, ordered by shard index.
func (s *Store) ShardStates() []ShardState {
	out := make([]ShardState, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		st := ShardState{
			Shard:    i,
			Records:  len(sh.recs),
			Recovery: sh.recovery,
			WALBytes: sh.walOff,
			Epoch:    sh.epoch.Load(),
		}
		if err := sh.degradedErrLocked(); err != nil {
			st.Degraded = err.Error()
		}
		sh.mu.RUnlock()
		out[i] = st
	}
	return out
}

// ShardEpochs returns each shard's mutation epoch, ordered by shard index.
// Serving layers fold this vector into a composed cache-invalidation epoch.
func (s *Store) ShardEpochs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.epoch.Load()
	}
	return out
}

// Degraded returns nil while the store accepts writes, or the latched error
// of the first degraded shard, naming the shard. The other shards keep
// serving writes, so callers that can route around a partition should
// consult ShardStates instead.
func (s *Store) Degraded() error {
	for i, sh := range s.shards {
		if err := sh.degradedErr(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// LatchReadOnly flips every shard into the degraded read-only state, as if
// its first log write had failed with cause. Reads keep working; every
// subsequent Put/Delete returns ErrDegraded. Intended for fault-injection
// tests of layers above the store that must stay consistent when writes
// start failing; there is no un-latch, matching the real failure path.
func (s *Store) LatchReadOnly(cause error) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.latch(cause)
		sh.mu.Unlock()
	}
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
// independent of r. Version is assigned by the store. The operation is
// logged before memory is mutated: if the log write fails, the store state
// is unchanged and the failing shard latches read-only (ErrDegraded on
// later writes to it) rather than letting memory diverge from the log.
func (s *Store) Put(r *Record) error {
	if err := s.validatePut(r); err != nil {
		return err
	}
	cp := r.Clone()
	cp.Deleted = false
	return s.shardFor(cp.ID).put(cp, &s.seq)
}

// PutBatch stores recs with up to workers concurrent writers, one per
// shard, and returns a per-record error slice. Versions are assigned
// serially in input order before any write starts, so the resulting store
// state — version numbers included — is identical for every (workers ×
// shards) combination; only wall-clock time changes. A shard that fails
// mid-batch latches degraded and fails its remaining records while other
// shards proceed.
func (s *Store) PutBatch(recs []*Record, workers int) []error {
	errs := make([]error, len(recs))
	clones := make([]*Record, len(recs))
	perShard := make([][]int, len(s.shards))
	for i, r := range recs {
		if err := s.validatePut(r); err != nil {
			errs[i] = err
			continue
		}
		cp := r.Clone()
		cp.Deleted = false
		cp.Version = s.seq.Add(1)
		clones[i] = cp
		si := shard.Of(cp.ID, len(s.shards))
		perShard[si] = append(perShard[si], i)
	}
	if workers <= 1 {
		for si, idxs := range perShard {
			s.shards[si].putBatch(clones, idxs, errs)
		}
		return errs
	}
	var wg sync.WaitGroup
	for si, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh *shardEngine, idxs []int) {
			defer wg.Done()
			sh.putBatch(clones, idxs, errs)
		}(s.shards[si], idxs)
	}
	wg.Wait()
	return errs
}

// Delete removes the record (a tombstone is logged so replay converges).
// Like Put, the tombstone is logged before memory changes; a failed log
// write leaves the record in place and latches its shard read-only.
func (s *Store) Delete(id string) error {
	return s.shardFor(id).deleteID(id, &s.seq)
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
	return s.shardFor(id).view(id)
}

// Len returns the number of live records.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.length()
	}
	return n
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
	out := []*Record{}
	for _, sh := range s.shards {
		out = sh.appendByConcept(out, concept)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CountByConcept returns the number of live records of the concept.
func (s *Store) CountByConcept(concept string) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.countByConcept(concept)
	}
	return n
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
// sorted by ID, under View's must-not-mutate contract.
func (s *Store) ViewByAttr(concept, key, value string) []*Record {
	ak := attrKey(concept, key, textproc.Normalize(value))
	out := []*Record{}
	for _, sh := range s.shards {
		out = sh.appendByAttr(out, ak)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Scan calls fn for every live record in sorted-ID order. fn receives a
// shared reference for speed and must not mutate it; return false to stop.
// All shard read-locks are held for the duration, so the scan observes one
// consistent cut of the store.
func (s *Store) Scan(fn func(*Record) bool) {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.RUnlock()
		}
	}()
	total := 0
	for _, sh := range s.shards {
		total += len(sh.recs)
	}
	ids := make([]string, 0, total)
	where := make(map[string]*Record, total)
	for _, sh := range s.shards {
		for id, r := range sh.recs {
			ids = append(ids, id)
			where[id] = r
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !fn(where[id]) {
			return
		}
	}
}

// Versions returns copies of superseded versions of id, oldest first.
// The live version is not included.
func (s *Store) Versions(id string) []*Record {
	return s.shardFor(id).versions(id)
}

// Concepts returns the concept names with at least one live record, sorted.
func (s *Store) Concepts() []string {
	set := make(map[string]bool)
	for _, sh := range s.shards {
		sh.conceptNames(set)
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Sync flushes buffered log writes to the OS and fsyncs every shard's log
// file. Only mutations acknowledged by a successful Sync (or Close) are
// guaranteed to survive a crash. A flush or fsync failure latches that
// shard read-only: after a failed fsync the kernel may have dropped the
// dirty pages, so pretending later syncs can succeed would break the
// durability contract. All shards are synced even if one fails; the first
// error is returned.
func (s *Store) Sync() error {
	var first error
	for i, sh := range s.shards {
		if err := sh.sync(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// Compact writes a snapshot of the live records and truncates the log,
// per shard, bounding recovery time. Safe to call at any point between
// mutations, and crash-safe at every step (see shard.compact). Every
// shard's snapshot records the store-wide clock, so a reopen resumes
// version numbering correctly even if only some shards have fresh
// snapshots. All shards are compacted even if one fails; the first error
// is returned, and the compactions counter increments only on full
// success so a partially failed pass is visible as a gap.
func (s *Store) Compact() error {
	if s.dir == "" {
		return nil
	}
	clock := s.seq.Load()
	var first error
	for i, sh := range s.shards {
		if err := sh.compact(clock); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if first == nil {
		s.metrics.Counter("lrec.compactions").Inc()
	}
	return first
}

// Close flushes and closes the store's files. The store must not be used
// afterwards. File handles are released even on error; a degraded shard
// skips the final sync (its log tail is already suspect and will be handled
// as a torn tail on the next Open) and reports the latched error. All
// shards are closed even if one fails; the first error is returned.
func (s *Store) Close() error {
	var first error
	for i, sh := range s.shards {
		if err := sh.closeShard(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}
