package lrec

import (
	"bufio"
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

// shardEngine is one hash partition of a Store: a map of records with secondary
// indexes, durably backed by its own append-only log plus snapshots, behind
// its own mutex. The facade in store.go routes record IDs here with
// hash(id) % N and assigns versions from a store-wide clock; everything else
// — replay, torn-tail repair, the degraded latch, compaction — is per shard,
// so a write failure in one partition leaves the others serving normally.
// A single-shard store uses the pre-sharding file names (lrec.log,
// lrec.snap) and is byte-identical to the unpartitioned format.
type shardEngine struct {
	id int

	mu   sync.RWMutex
	recs map[string]*Record
	// byConcept maps concept name -> set of record ids.
	byConcept map[string]map[string]bool
	// byAttr maps concept \x00 key \x00 normalizedValue -> the ids holding
	// it, sorted and without duplicates. Most values are held by one record,
	// so a slice costs a fraction of a per-key set.
	byAttr map[string][]string
	// history holds superseded versions, newest last, maxVersions per
	// record.
	history map[string][]*Record

	// seq is the highest version this shard has observed (replayed or
	// applied). Compact persists the facade's global clock through it so a
	// reopened store never hands out duplicate versions.
	seq uint64

	dir      string
	logName  string
	snapName string
	fs       framelog.FS
	logFile  framelog.File
	logW     *bufio.Writer
	walOff   int64 // bytes appended to the current log (buffered included)

	// degraded, once set, latches the shard read-only: the first log write
	// or fsync failure means this shard's log no longer reflects memory, so
	// accepting further mutations would silently widen the divergence.
	// Sibling shards are unaffected.
	degraded error
	recovery RecoveryStats

	// epoch counts applied mutations; serving layers fold the per-shard
	// vector into one composed cache-invalidation epoch.
	epoch atomic.Uint64

	metrics  *obs.Registry
	walBytes *obs.Gauge // store.shard.<id>.wal_bytes; nil without metrics
}

func newShard(id int, s *Store) *shardEngine {
	sh := &shardEngine{
		id:        id,
		recs:      make(map[string]*Record),
		byConcept: make(map[string]map[string]bool),
		byAttr:    make(map[string][]string),
		history:   make(map[string][]*Record),
		fs:        s.fs,
		metrics:   s.metrics,
	}
	if s.metrics != nil {
		sh.walBytes = s.metrics.Gauge(fmt.Sprintf("store.shard.%d.wal_bytes", id))
	}
	return sh
}

// open replays this shard's snapshot and log from dir and opens the log for
// appending. A snapshot is sealed (written whole, then renamed into place),
// so any bad frame in it fails the open; the log's torn tail is cut back to
// the last good frame so appends resume exactly where replay will next time.
func (sh *shardEngine) open(dir string) error {
	sh.dir = dir
	if _, err := framelog.Replay(sh.fs, filepath.Join(dir, sh.snapName), true, sh.replayFrame); err != nil {
		return fmt.Errorf("lrec: replay snapshot: %w", err)
	}
	sh.recovery.SnapshotRecords = len(sh.recs) // a snapshot holds one put per live record
	logPath := filepath.Join(dir, sh.logName)
	rec, err := framelog.Replay(sh.fs, logPath, false, sh.replayFrame)
	if err != nil {
		return fmt.Errorf("lrec: replay log: %w", err)
	}
	sh.recovery.LogFrames = rec.Frames
	sh.recovery.TornTail = rec.TornTail
	sh.recovery.TruncatedBytes = rec.TruncatedBytes
	if rec.TornTail {
		sh.metrics.Counter("lrec.recovery.torn_tails").Inc()
		sh.metrics.Counter("lrec.recovery.truncated_bytes").Add(rec.TruncatedBytes)
	}
	f, err := sh.fs.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("lrec: open log: %w", err)
	}
	// Make the (possibly just-created) log's directory entry durable.
	if err := sh.fs.SyncDir(dir); err != nil {
		f.Close()
		return fmt.Errorf("lrec: open: sync dir: %w", err)
	}
	sh.logFile = f
	sh.logW = bufio.NewWriter(f)
	sh.setWALBytes(rec.Size)
	return nil
}

func (sh *shardEngine) setWALBytes(n int64) {
	sh.walOff = n
	if sh.walBytes != nil {
		sh.walBytes.Set(n)
	}
}

func (sh *shardEngine) degradedErr() error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.degradedErrLocked()
}

func (sh *shardEngine) degradedErrLocked() error {
	if sh.degraded == nil {
		return nil
	}
	return fmt.Errorf("%w: %v", ErrDegraded, sh.degraded)
}

// latch records the first write-path failure and flips the shard read-only.
// Caller holds mu.
func (sh *shardEngine) latch(err error) {
	if sh.degraded == nil {
		sh.degraded = err
		sh.metrics.Gauge("lrec.degraded").Add(1)
	}
}

// replayFrame decodes and applies one replayed operation and advances the
// clock. opSeq frames carry only a Version and exist purely to advance it.
func (sh *shardEngine) replayFrame(_ int64, payload []byte) error {
	op, r, err := decodeOp(payload)
	if err != nil {
		return err
	}
	switch op {
	case opPut:
		sh.applyPut(r)
	case opDelete:
		sh.applyDelete(r.ID)
	}
	if r.Version > sh.seq {
		sh.seq = r.Version
	}
	return nil
}

// put assigns cp the next global version under the shard lock and applies
// it. Taking the version inside the lock keeps each shard's logged versions
// monotonic even under concurrent facade Puts to the same shard.
func (sh *shardEngine) put(cp *Record, clock *atomic.Uint64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.degradedErrLocked(); err != nil {
		return err
	}
	cp.Version = clock.Add(1)
	return sh.putLocked(cp)
}

// putBatch applies pre-versioned clones (the entries of clones selected by
// idxs, in idxs order) under one lock acquisition, recording each outcome in
// errs. A log failure mid-batch latches the shard; the remaining entries of
// this shard fail with ErrDegraded while other shards proceed.
func (sh *shardEngine) putBatch(clones []*Record, idxs []int, errs []error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, i := range idxs {
		if err := sh.degradedErrLocked(); err != nil {
			errs[i] = err
			continue
		}
		errs[i] = sh.putLocked(clones[i])
	}
}

// putLocked logs and applies a clone whose Version is already assigned.
// Caller holds mu.
func (sh *shardEngine) putLocked(cp *Record) error {
	if err := sh.logOp(opPut, cp); err != nil {
		sh.latch(err)
		return err
	}
	sh.applyPut(cp)
	if cp.Version > sh.seq {
		sh.seq = cp.Version
	}
	sh.epoch.Add(1)
	// Counted after validation and logging so rejected or failed puts do
	// not inflate the metric.
	sh.metrics.Counter("lrec.puts").Inc()
	return nil
}

// applyPut installs cp into maps and indexes; caller holds mu.
func (sh *shardEngine) applyPut(cp *Record) {
	if old, ok := sh.recs[cp.ID]; ok {
		sh.unindex(old)
		sh.pushHistory(old)
	}
	sh.recs[cp.ID] = cp
	sh.indexRec(cp)
}

// maxVersions is how many superseded versions a record keeps.
const maxVersions = 4

func (sh *shardEngine) pushHistory(old *Record) {
	h := append(sh.history[old.ID], old)
	if len(h) > maxVersions {
		h = h[len(h)-maxVersions:]
	}
	sh.history[old.ID] = h
}

// deleteID logs a tombstone for id and removes it. Like put, the tombstone
// is logged before memory changes; a failed log write leaves the record in
// place and latches the shard read-only.
func (sh *shardEngine) deleteID(id string, clock *atomic.Uint64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.degradedErrLocked(); err != nil {
		return err
	}
	old, ok := sh.recs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	tomb := &Record{ID: id, Concept: old.Concept, Version: clock.Add(1), Deleted: true}
	if err := sh.logOp(opDelete, tomb); err != nil {
		sh.latch(err)
		return err
	}
	sh.applyDelete(id)
	if tomb.Version > sh.seq {
		sh.seq = tomb.Version
	}
	sh.epoch.Add(1)
	// Counted after the not-found check so rejected deletes don't inflate
	// the metric.
	sh.metrics.Counter("lrec.deletes").Inc()
	return nil
}

func (sh *shardEngine) applyDelete(id string) {
	old, ok := sh.recs[id]
	if !ok {
		return
	}
	sh.unindex(old)
	sh.pushHistory(old)
	delete(sh.recs, id)
}

func (sh *shardEngine) logOp(op byte, r *Record) error {
	if sh.logW == nil {
		return nil
	}
	n, err := sh.logW.Write(encodeOp(op, r))
	if err != nil {
		return fmt.Errorf("lrec: log write: %w", err)
	}
	sh.setWALBytes(sh.walOff + int64(n))
	sh.metrics.Counter("lrec.wal.appends").Inc()
	return nil
}

func attrKey(concept, key, normVal string) string {
	return concept + "\x00" + key + "\x00" + normVal
}

func (sh *shardEngine) indexRec(r *Record) {
	set := sh.byConcept[r.Concept]
	if set == nil {
		set = make(map[string]bool)
		sh.byConcept[r.Concept] = set
	}
	set[r.ID] = true
	for k, vals := range r.Attrs {
		for _, v := range vals {
			ak := attrKey(r.Concept, k, textproc.Normalize(v.Value))
			ids := sh.byAttr[ak]
			if i, found := slices.BinarySearch(ids, r.ID); !found {
				sh.byAttr[ak] = slices.Insert(ids, i, r.ID)
			}
		}
	}
}

func (sh *shardEngine) unindex(r *Record) {
	if set := sh.byConcept[r.Concept]; set != nil {
		delete(set, r.ID)
		if len(set) == 0 {
			delete(sh.byConcept, r.Concept)
		}
	}
	for k, vals := range r.Attrs {
		for _, v := range vals {
			ak := attrKey(r.Concept, k, textproc.Normalize(v.Value))
			ids := sh.byAttr[ak]
			i, found := slices.BinarySearch(ids, r.ID)
			switch {
			case !found: // a second value normalizing to the same key
			case len(ids) == 1:
				delete(sh.byAttr, ak)
			default:
				sh.byAttr[ak] = slices.Delete(ids, i, i+1)
			}
		}
	}
}

// view returns the installed record with the given id itself, not a copy.
// Installed records are never mutated in place — applyPut swaps the pointer —
// so the reference stays internally consistent after the lock is released;
// the caller must not mutate it.
func (sh *shardEngine) view(id string) (*Record, error) {
	sh.metrics.Counter("lrec.gets").Inc()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.recs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return r, nil
}

func (sh *shardEngine) length() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.recs)
}

// appendByConcept appends the shard's installed records of the concept to
// out. The references are shared; see view.
func (sh *shardEngine) appendByConcept(out []*Record, concept string) []*Record {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for id := range sh.byConcept[concept] {
		out = append(out, sh.recs[id])
	}
	return out
}

func (sh *shardEngine) countByConcept(concept string) int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.byConcept[concept])
}

// appendByAttr appends the shard's installed records with the given
// normalized attribute value to out, sorted by ID. The references are
// shared; see view.
func (sh *shardEngine) appendByAttr(out []*Record, ak string) []*Record {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, id := range sh.byAttr[ak] {
		out = append(out, sh.recs[id])
	}
	return out
}

// versions returns copies of superseded versions of id, oldest first.
func (sh *shardEngine) versions(id string) []*Record {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	h := sh.history[id]
	out := make([]*Record, len(h))
	for i, r := range h {
		out[i] = r.Clone()
	}
	return out
}

func (sh *shardEngine) conceptNames(into map[string]bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for c := range sh.byConcept {
		into[c] = true
	}
}

// sync flushes buffered log writes to the OS and fsyncs the log file. A
// flush or fsync failure latches the shard read-only: after a failed fsync
// the kernel may have dropped the dirty pages, so pretending later syncs can
// succeed would break the durability contract.
func (sh *shardEngine) sync() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.degradedErrLocked(); err != nil {
		return err
	}
	return sh.syncLocked()
}

func (sh *shardEngine) syncLocked() error {
	if sh.logW == nil {
		return nil
	}
	if err := sh.logW.Flush(); err != nil {
		sh.latch(err)
		return fmt.Errorf("lrec: sync: %w", err)
	}
	if err := sh.logFile.Sync(); err != nil {
		sh.latch(err)
		return fmt.Errorf("lrec: sync: %w", err)
	}
	return nil
}

// compact writes a snapshot of the shard's live records and truncates its
// log, bounding recovery time. clock is the facade's global version clock,
// persisted as the snapshot's opSeq frame so a reopened store resumes
// version numbering past everything ever assigned — including versions that
// landed on sibling shards. Crash-safe at every step exactly like the
// unsharded Compact was: temp file, fsync, rename, directory fsync, and the
// old log handle stays open until the fresh log exists.
//
// The lrec.compactions counter is incremented once per facade Compact, not
// here, so an N-shard compaction does not count N times.
func (sh *shardEngine) compact(clock uint64) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.dir == "" {
		return nil
	}
	if err := sh.degradedErrLocked(); err != nil {
		return err
	}
	// The clock goes first: the snapshot holds only live records, so if the
	// newest mutation was a Delete its tombstone's version would otherwise
	// be lost and a reopened store would hand out duplicate versions. The
	// log is replaced only after WriteFile has made the rename durable.
	err := framelog.WriteFile(sh.fs, filepath.Join(sh.dir, sh.snapName), func(w io.Writer) error {
		if _, err := w.Write(encodeOp(opSeq, &Record{Version: clock})); err != nil {
			return err
		}
		ids := make([]string, 0, len(sh.recs))
		for id := range sh.recs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if _, err := w.Write(encodeOp(opPut, sh.recs[id])); err != nil {
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
	f2, err := sh.fs.Create(filepath.Join(sh.dir, sh.logName))
	if err != nil {
		return fmt.Errorf("lrec: compact: %w", err)
	}
	if sh.logFile != nil {
		// Buffered frames are already captured by the snapshot and the log
		// they belong to is obsolete; close errors change nothing durable.
		sh.logFile.Close()
	}
	sh.logFile = f2
	sh.logW = bufio.NewWriter(f2)
	if clock > sh.seq {
		sh.seq = clock
	}
	sh.setWALBytes(0)
	return nil
}

// closeShard flushes and closes the shard's files. File handles are released
// even on error; a degraded shard skips the final sync (its log tail is
// already suspect and will be handled as a torn tail on the next Open) and
// reports the latched error.
func (sh *shardEngine) closeShard() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.logW == nil {
		return nil
	}
	degraded := sh.degradedErrLocked()
	var syncErr error
	if degraded == nil {
		syncErr = sh.syncLocked()
	}
	closeErr := sh.logFile.Close()
	sh.logFile = nil
	sh.logW = nil
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
