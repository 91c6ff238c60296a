package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"locsvc/internal/core"
	"locsvc/internal/spatial"
)

// This file is the store half of leaf replication (see internal/server's
// package doc for the protocol): the hooks a primary uses to observe its
// own committed state — the WAL tee (shardedwal.go), the tier-structure
// notifier and the snapshot reader here — and the apply surface a standby
// uses to mirror it, including bulk installation of shipped run files.
//
// Ordering is the load-bearing property throughout. A shard's replication
// stream must reproduce the primary's per-shard apply order, and every
// hook here is positioned so that it does:
//
//   - WAL-teed records (puts, removes, registration changes) are observed
//     in segment commit order, which equals apply order because both
//     happen under the shard's write lock.
//   - ReplSnapshot reads the shard's state AND enqueues a WAL marker
//     inside one critical section, so the marker's position in the tee
//     stream is exactly the snapshot's position in the apply order.
//   - The flush notifier fires after the flushed segment's drain barrier,
//     so by the time a ClearMem notification can be enqueued every put
//     the new run covers has already been teed.

// ReplNotifyFunc observes a tier-structure change of one shard: runs is
// the shard's new run list (newest first, base names), nextSeq its run
// sequence cursor, and clearMem reports a flush (the memtable content
// moved into runs[0]; a mirroring standby must clear its own memtable
// after installing the run list). Called with the shard's write lock held
// — implementations must only enqueue, never block.
type ReplNotifyFunc func(shard int, runs []string, nextSeq uint64, clearMem bool)

// replNotifyBox wraps the notifier for atomic.Pointer storage.
type replNotifyBox struct{ fn ReplNotifyFunc }

// SetReplNotify installs (or, with nil, removes) the tier-change notifier.
func (db *ShardedSightingDB) SetReplNotify(fn ReplNotifyFunc) {
	if fn == nil {
		db.replNotify.Store(nil)
		return
	}
	db.replNotify.Store(&replNotifyBox{fn: fn})
}

// notifyRepl invokes the notifier, if any. Caller holds the shard's write
// lock.
func (db *ShardedSightingDB) notifyRepl(shard int, runs []*tierRun, nextSeq uint64, clearMem bool) {
	b := db.replNotify.Load()
	if b == nil {
		return
	}
	b.fn(shard, runBaseNames(runs), nextSeq, clearMem)
}

// runBaseNames lists runs' file base names, newest first.
func runBaseNames(runs []*tierRun) []string {
	if len(runs) == 0 {
		return nil
	}
	names := make([]string, len(runs))
	for i, r := range runs {
		names[i] = filepath.Base(r.path)
	}
	return names
}

// SetReplStandby marks the store as a replication standby (or clears the
// mark on promotion). A standby never restructures its tier on its own —
// MaintainTiers and the inline flush backpressure become no-ops — because
// its run list must mirror the primary's exactly; it changes only through
// ReplInstallRuns and ReplInstallSnapshot.
func (db *ShardedSightingDB) SetReplStandby(standby bool) {
	db.replStandby.Store(standby)
}

// ReplShardState is the snapshot of one shard a standby bootstraps from:
// the memtable's live records and tombstones, the registrations, the run
// list (newest first, base names) and the run sequence cursor. Replaying
// Live/Dead/Regs over an installed Runs list reproduces the shard in effect.
type ReplShardState struct {
	Live    []core.Sighting
	Dead    []core.OID
	Regs    map[core.OID]Registration
	Runs    []string
	NextSeq uint64
}

// replShard resolves a shard index carried by a replication message.
func (db *ShardedSightingDB) replShard(shard int) (*sightingShard, error) {
	if shard < 0 || shard >= len(db.shards) {
		return nil, fmt.Errorf("store: replication shard %d out of range (%d shards)", shard, len(db.shards))
	}
	return db.shards[shard], nil
}

// ReplSnapshot captures shard's full state and, while still holding the
// shard's write lock, enqueues a replication marker carrying token on the
// shard's WAL stream. The marker surfaces through ReplTee.TeeRecord at
// exactly the snapshot's position in the tee order: every record teed
// before it is contained in the snapshot, every record teed after it was
// applied after the snapshot was taken. That is what lets a sender splice
// the snapshot into a live stream without pausing writers.
func (db *ShardedSightingDB) ReplSnapshot(shard int, token uint64) (ReplShardState, error) {
	sh, err := db.replShard(shard)
	if err != nil {
		return ReplShardState{}, err
	}
	sh.lockWrite()
	defer sh.mu.Unlock()
	st := ReplShardState{Live: sh.liveSnapshot(), Regs: make(map[core.OID]Registration, sh.nreg)}
	for id, o := range sh.objs {
		if o.reg != nil {
			st.Regs[id] = o.registration()
		}
		if o.mem == memTomb {
			st.Dead = append(st.Dead, id)
		}
	}
	if t := sh.tier; t != nil {
		st.Runs = runBaseNames(t.runs)
		st.NextSeq = t.nextSeq.Load()
	}
	if db.wal != nil {
		if err := db.wal.Mark(shard, token); err != nil {
			return st, err
		}
	}
	return st, nil
}

// replFetchChunk is the transfer unit of a run download — small enough to
// ride a few datagram-batched request/responses, large enough to amortize
// the per-call overhead.
const replFetchChunk = 128 << 10

// ReadRunChunk serves one chunk of a run file to a fetching standby. The
// name is validated against the run naming scheme (never joined raw, so a
// hostile name cannot escape the tier directory); a name whose file is
// gone — compacted away between the notification and the fetch — returns
// the os.ErrNotExist it stats to, which the fetching side heals with a
// fresh snapshot. size is the full file length; eof reports that the
// chunk reaches it.
func (db *ShardedSightingDB) ReadRunChunk(name string, off int64, maxBytes int) (data []byte, size int64, eof bool, err error) {
	ts := db.tier
	if ts == nil {
		return nil, 0, false, errors.New("store: run fetch from an untiered store")
	}
	if _, _, ok := parseRunName(name); !ok {
		return nil, 0, false, fmt.Errorf("store: run fetch: invalid run name %q", name)
	}
	if off < 0 {
		return nil, 0, false, fmt.Errorf("store: run fetch: negative offset %d", off)
	}
	if maxBytes <= 0 || maxBytes > replFetchChunk {
		maxBytes = replFetchChunk
	}
	f, err := os.Open(filepath.Join(ts.dir, name))
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, false, err
	}
	size = st.Size()
	if off >= size {
		return nil, size, true, nil
	}
	buf := make([]byte, maxBytes)
	n, rerr := f.ReadAt(buf, off)
	if rerr != nil && rerr != io.EOF {
		return nil, size, false, rerr
	}
	return buf[:n], size, off+int64(n) >= size, nil
}

// replFetchTempPattern names in-flight run downloads. It matches
// tierTempGlob, so a download torn by a crash is swept like any other
// tier temporary the next time the store opens.
const replFetchTempPattern = ".tier-fetch-*"

// ReplFetchRun downloads one run file through read — called with growing
// offsets until it reports eof — into a temporary, verifies all three of
// the run's checksums (metadata, records, spatial leaves), and atomically
// renames it into the tier directory. Idempotent: a run already present on disk
// (this download raced another, or survives from before a demotion) is
// kept as is — run files are immutable and content-addressed by name.
func (db *ShardedSightingDB) ReplFetchRun(name string, read func(off int64, maxBytes int) (data []byte, eof bool, err error)) error {
	ts := db.tier
	if ts == nil {
		return errors.New("store: run fetch into an untiered store")
	}
	if _, _, ok := parseRunName(name); !ok {
		return fmt.Errorf("store: run fetch: invalid run name %q", name)
	}
	final := filepath.Join(ts.dir, name)
	if _, err := os.Stat(final); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(ts.dir, replFetchTempPattern)
	if err != nil {
		return fmt.Errorf("store: creating run fetch temp: %w", err)
	}
	abort := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	off := int64(0)
	for {
		data, eof, err := read(off, replFetchChunk)
		if err != nil {
			return abort(fmt.Errorf("store: fetching run %s at offset %d: %w", name, off, err))
		}
		if len(data) > 0 {
			if _, err := tmp.Write(data); err != nil {
				return abort(fmt.Errorf("store: writing run fetch temp: %w", err))
			}
			off += int64(len(data))
		}
		if eof {
			break
		}
		if len(data) == 0 {
			return abort(fmt.Errorf("store: fetching run %s: empty non-final chunk at offset %d", name, off))
		}
	}
	if err := tmp.Sync(); err != nil {
		return abort(fmt.Errorf("store: syncing run fetch temp: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: closing run fetch temp: %w", err)
	}
	// Verify before install: openRun checks the footer and the metadata
	// checksum (bloom, sparse index, leaf directory), verify the records'
	// and the spatial leaves' checksums. A transfer torn or corrupted
	// anywhere fails here and leaves no trace.
	r, err := openRun(tmp.Name())
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: verifying fetched run %s: %w", name, err)
	}
	verifyErr := r.verify()
	r.retire(false)
	if verifyErr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: verifying fetched run %s: %w", name, verifyErr)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: installing fetched run %s: %w", name, err)
	}
	return syncDir(final)
}

// fetchMissingRuns downloads, via fetch, every named run not yet present
// in the tier directory. Called without any shard lock — downloads are
// the slow path and must not stall readers.
func (db *ShardedSightingDB) fetchMissingRuns(names []string, fetch func(name string) error) error {
	ts := db.tier
	for _, name := range names {
		if _, _, ok := parseRunName(name); !ok {
			return fmt.Errorf("store: run install: invalid run name %q", name)
		}
		if _, err := os.Stat(filepath.Join(ts.dir, name)); err == nil {
			continue
		}
		if fetch == nil {
			return fmt.Errorf("store: run install: %s missing with no fetcher", name)
		}
		if err := fetch(name); err != nil {
			return err
		}
	}
	return nil
}

// swapRunsLocked replaces shard's run list with names (newest first),
// reusing already-open runs, opening newly fetched ones and retiring the
// dropped ones, and commits the new list through the manifest — the same
// atomic swap flushes and compactions use — and clears the shard's run
// tables and object sequences. Caller holds the shard's write lock; every
// failure path leaves the current list untouched.
func (db *ShardedSightingDB) swapRunsLocked(sh *sightingShard, shard int, names []string, nextSeq uint64) error {
	t := sh.tier
	if t == nil {
		return errors.New("store: run install on an untiered store")
	}
	have := make(map[string]*tierRun, len(t.runs))
	for _, r := range t.runs {
		have[filepath.Base(r.path)] = r
	}
	newRuns := make([]*tierRun, 0, len(names))
	var opened []*tierRun
	for _, name := range names {
		if r := have[name]; r != nil {
			newRuns = append(newRuns, r)
			continue
		}
		r, err := openRun(filepath.Join(t.dir, name))
		if err != nil {
			for _, o := range opened {
				o.retire(false)
			}
			return err
		}
		newRuns = append(newRuns, r)
		opened = append(opened, r)
	}
	if cur := t.nextSeq.Load(); nextSeq < cur {
		nextSeq = cur // the cursor never moves backwards
	}
	if err := saveManifest(t.dir, tierManifestFor(shard, nextSeq, newRuns)); err != nil {
		for _, o := range opened {
			o.retire(false)
		}
		return err
	}
	keep := make(map[string]bool, len(names))
	for _, name := range names {
		keep[name] = true
	}
	old := t.runs
	t.setRuns(newRuns)
	t.nextSeq.Store(nextSeq)
	for _, r := range old {
		if !keep[filepath.Base(r.path)] {
			r.retire(true)
		}
	}
	// The installed runs were written elsewhere: no object's sequence
	// places it among them, so every hit is judged by id until this
	// process writes runs of its own again.
	t.installs++
	for _, r := range old {
		r.objs = nil
	}
	for _, o := range sh.objs {
		o.seqKnown = false
	}
	return nil
}

// resetMemtableLocked empties the memtable (sightings, tombstones, spatial
// index); the registrations stay. Caller holds the shard's write lock.
func (db *ShardedSightingDB) resetMemtableLocked(sh *sightingShard) {
	sh.regMu.Lock()
	sh.eachMem(func(id core.OID, o *object) bool {
		if o.mem = memNone; o.reg == nil {
			sh.deleteObj(id, o)
		}
		return true
	})
	sh.regMu.Unlock()
	sh.idx = spatial.NewQuadtree()
	sh.mem = sh.mem[:0]
	sh.nonempty = false
	sh.stale = 0
	sh.memBytes = 0
}

// ReplInstallRuns applies a primary's tier-structure notification on a
// standby: fetch any run file not yet local (off-lock), then atomically
// swap the shard's run list to names. clearMem mirrors a primary flush —
// the standby's memtable at this point in the stream equals the memtable
// the primary flushed into names[0], so it is cleared and the standby's
// own WAL segment reset, exactly like the primary's flush path.
func (db *ShardedSightingDB) ReplInstallRuns(shard int, names []string, nextSeq uint64, clearMem bool, fetch func(name string) error) error {
	if db.tier == nil {
		return errors.New("store: ReplInstallRuns on an untiered store")
	}
	if err := db.fetchMissingRuns(names, fetch); err != nil {
		return err
	}
	sh, err := db.replShard(shard)
	if err != nil {
		return err
	}
	sh.lockWrite()
	defer sh.mu.Unlock()
	if err := db.swapRunsLocked(sh, shard, names, nextSeq); err != nil {
		return err
	}
	if clearMem {
		db.resetMemtableLocked(sh)
		if db.wal != nil && db.wal.Err() == nil {
			if err := db.wal.CompactShard(shard, nil, nil); err != nil {
				return fmt.Errorf("store: resetting WAL segment after run install of shard %d: %w", shard, err)
			}
		}
	}
	return nil
}

// ReplInstallSnapshot replaces shard's entire state — memtable, tombstone
// set, registrations, run list, sequence cursor — with a primary's
// snapshot: the bootstrap and gap-healing path. Run files are fetched
// off-lock; the swap, the logged registration changes and the memtable
// rebuild happen under the shard's write lock; the standby's WAL segment
// is rewritten to replay to exactly the installed memtable (live records
// and tombstones both — dropping the tombstones would resurrect
// run-resident versions on the next restart).
func (db *ShardedSightingDB) ReplInstallSnapshot(shard int, st ReplShardState, fetch func(name string) error) error {
	if len(st.Runs) > 0 && db.tier == nil {
		return errors.New("store: snapshot with runs into an untiered store")
	}
	if db.tier != nil {
		if err := db.fetchMissingRuns(st.Runs, fetch); err != nil {
			return err
		}
	}
	sh, err := db.replShard(shard)
	if err != nil {
		return err
	}
	sh.lockWrite()
	defer sh.mu.Unlock()
	if sh.tier != nil {
		if err := db.swapRunsLocked(sh, shard, st.Runs, st.NextSeq); err != nil {
			return err
		}
	}
	db.resetMemtableLocked(sh)
	// Every object left holds a registration.
	for id := range sh.objs {
		if _, keep := st.Regs[id]; !keep {
			if err := db.changeRegLocked(sh, shard, id, nil); err != nil {
				return err
			}
		}
	}
	for id, reg := range st.Regs {
		if err := db.changeRegLocked(sh, shard, id, &reg); err != nil {
			return err
		}
	}
	expires := db.leaseEnd()
	for _, s := range st.Live {
		db.setSighting(sh, sh.obj(s.OID), s, expires)
	}
	sh.rebuildIndexLocked()
	if sh.tier != nil {
		for _, id := range st.Dead {
			sh.setMem(id, sh.obj(id), memTomb)
		}
	}
	if db.wal != nil && db.wal.Err() == nil {
		if err := db.wal.CompactShard(shard, st.Live, st.Dead); err != nil {
			return fmt.Errorf("store: rewriting WAL segment after snapshot install of shard %d: %w", shard, err)
		}
	}
	return nil
}
