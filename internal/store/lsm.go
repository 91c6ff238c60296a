package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// This file implements the tiered (LSM) mode of ShardedSightingDB: each
// shard's in-memory state is the memtable of a small per-shard LSM tree
// whose immutable sorted runs live on disk (run.go) under a per-shard
// manifest (manifest.go). See the package comment for the full spec.

// TierConfig enables and tunes tiered sighting storage. Zero-valued
// fields take the defaults noted below. A tiered store needs a sighting
// WAL: its run files and manifests live in the WAL's directory beside the
// segments (the names cannot collide), per shard and named by shard
// index, so a tier directory belongs to the shard count it was written
// under. Tiering without the log would serve a flushed run over the
// acknowledged updates that came after it once the store reopened.
//
// Tiering moves the records out of RAM, not what a spatial query needs:
// every run keeps each live record's position and id resident (≈ 21 B plus
// the id's length; TierStats.MetaBytes), so range and nearest-neighbor
// queries read no disk, and only point lookups of objects the memtable
// does not hold do.
type TierConfig struct {
	// MemtableBytes is the total memtable budget across all shards
	// (estimated resident bytes of live entries and tombstones; the runs'
	// resident columns are outside it). A shard exceeding its share is
	// flushed by MaintainTiers; at twice its share the update path
	// flushes inline (backpressure). Default 64 MiB.
	MemtableBytes int64
	// MaxRuns is the per-shard run count beyond which MaintainTiers
	// compacts the shard's runs into one. Default 4.
	MaxRuns int
	// BloomBitsPerKey sizes each run's bloom filter. Default 10
	// (≈1% false positives).
	BloomBitsPerKey int
}

func (c TierConfig) withDefaults() TierConfig {
	if c.MemtableBytes <= 0 {
		c.MemtableBytes = 64 << 20
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 4
	}
	if c.BloomBitsPerKey <= 0 {
		c.BloomBitsPerKey = 10
	}
	return c
}

// tierState is the store-level tiering state: configuration, counters,
// and the background-recovery gate.
type tierState struct {
	cfg    TierConfig
	dir    string // the sighting WAL's directory, holding runs and manifests
	budget int64  // per-shard soft memtable budget

	flushes       atomic.Int64
	compactions   atomic.Int64
	bloomHits     atomic.Int64
	bloomMisses   atomic.Int64
	leavesScanned atomic.Int64 // resident spatial leaves range and NN reads tested
	readErrs      atomic.Int64 // failed run reads: point-lookup pread or decode, full-scan checksum

	// warmed flips once recovery (synchronous or background) has replayed
	// every shard's WAL tail; MaintainTiers is a no-op before that.
	warmed   atomic.Bool
	warming  atomic.Bool
	warmWG   sync.WaitGroup
	warmMu   sync.Mutex
	warmErr  error // guarded by warmMu
	warmLeft int   // shards still replaying, guarded by warmMu
}

// shardTier is one shard's run list. runs (newest first) is replaced
// copy-on-write under the shard's write lock and read under either lock;
// nextSeq is reserved atomically so an inline flush and a concurrent
// compaction never allocate the same run name. swaps counts the
// replacements of runs, guarded like runs.
type shardTier struct {
	dir     string
	shard   int
	nextSeq atomic.Uint64
	runs    []*tierRun
	swaps   uint64
}

// setRuns makes runs the shard's run list. Caller holds the write lock.
func (t *shardTier) setRuns(runs []*tierRun) {
	t.runs = runs
	t.swaps++
}

// TierStats is a point-in-time snapshot of the tiering machinery,
// surfaced through server diagnostics (DiagRes) and lsctl stats.
type TierStats struct {
	Enabled       bool
	Warm          bool  // recovery finished; maintenance active
	MemtableBytes int64 // estimated resident memtable bytes, all shards
	Runs          int   // run files across all shards
	RunBytes      int64 // run file bytes on disk
	MetaBytes     int64 // resident run metadata: blooms, sparse indexes, leaf directories, spatial columns (position, id end and id per live record) and object tables
	DiskRecords   int64 // records in runs, tombstones included
	DiskLive      int64 // live (non-tombstone) records in runs
	Flushes       int64
	Compactions   int64
	BloomHits     int64 // run probes admitted by a bloom filter
	BloomMisses   int64 // run probes skipped by a bloom filter
	LeavesScanned int64 // resident spatial leaves whose positions range and nearest-neighbor queries tested (no I/O)
	ReadErrors    int64 // run reads that failed (a point lookup's pread or decode, a full scan's checksum); each shrinks an answer
	Backlog       int   // shards over the MaxRuns compaction threshold
}

// memCost estimates the resident cost of what the memtable holds for id (a
// sighting: hash bucket, record, index node; or a tombstone), registration
// aside. Rough by design — the budget bounds order of magnitude, not bytes.
func memCost(st memState, id core.OID) int64 {
	return [...]int64{memNone: 0, memSighting: int64(len(id))*2 + 160, memTomb: int64(len(id)) + 48}[st]
}

// tierManifestFor builds the manifest describing runs (newest first).
func tierManifestFor(shard int, nextSeq uint64, runs []*tierRun) tierManifest {
	names := make([]string, len(runs))
	for i, r := range runs {
		names[i] = filepath.Base(r.path)
	}
	return tierManifest{Shard: shard, NextSeq: nextSeq, Runs: names}
}

// openTiers loads every shard's manifest, sweeps crash leftovers
// (temporaries and unreferenced runs), opens the referenced runs'
// metadata and spatial columns and attaches the tiers to the shards.
// Called by the Recover paths before any WAL replay; cost is O(run
// metadata + columns), no record read. A
// tiered store without a sighting WAL is refused here.
func (db *ShardedSightingDB) openTiers() error {
	ts := db.tier
	if ts == nil {
		return nil
	}
	if db.wal == nil {
		return errors.New("store: tiering requires a sighting WAL (WithSightingWAL): runs live in its directory")
	}
	dir := ts.dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: creating tier dir %s: %w", dir, err)
	}
	n := len(db.shards)
	referenced := make(map[string]bool)
	manifests := make([]tierManifest, n)
	for i := 0; i < n; i++ {
		m, _, err := loadManifest(dir, i)
		if err != nil {
			return err
		}
		manifests[i] = m
		for _, name := range m.Runs {
			referenced[name] = true
		}
	}
	if err := sweepTierLeftovers(dir, n, referenced); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		t := &shardTier{dir: dir, shard: i}
		t.nextSeq.Store(manifests[i].NextSeq)
		for _, name := range manifests[i].Runs {
			r, err := openRun(filepath.Join(dir, name), nil)
			if err != nil {
				for _, prev := range t.runs {
					prev.retire(false)
				}
				return fmt.Errorf("store: opening tier shard %d: %w", i, err)
			}
			t.runs = append(t.runs, r)
		}
		sh := db.shards[i]
		sh.mu.Lock()
		sh.tier = t
		sh.mu.Unlock()
	}
	return nil
}

// flushShardLocked freezes the shard's memtable into a new sorted run:
// write the run file (atomic rename + dir fsync), install it at the head
// of the manifest (atomic rename + dir fsync — the commit point), clear
// the memtable, and reset the shard's WAL segment to empty. The caller
// holds the shard's write lock for the whole call, so the run is a
// consistent snapshot and no append can slip between it and the segment
// rewrite.
//
// Crash ordering: a crash before the manifest rename leaves an orphan
// run (swept at the next open) and an intact WAL — recovery replays the
// full memtable. A crash after the manifest rename but before the WAL
// reset replays a tail duplicating the newest run's content — idempotent,
// since the memtable it rebuilds shadows those exact records. Flushes
// emit no deltas: the store's logical content is unchanged.
func (db *ShardedSightingDB) flushShardLocked(sh *sightingShard, shard int) error {
	t := sh.tier
	if t == nil || len(sh.mem) == 0 {
		return nil
	}
	type memRecord struct {
		runRecord
		o *object
	}
	recs := make([]memRecord, 0, len(sh.mem))
	sh.eachMem(func(id core.OID, o *object) bool {
		rec := runRecord{s: core.Sighting{OID: id}, tombstone: true}
		if o.mem == memSighting {
			rec = runRecord{s: o.sighting(id), expires: unixTime(o.expires)}
		}
		recs = append(recs, memRecord{rec, o})
		return true
	})
	sort.Slice(recs, func(a, b int) bool { return recs[a].s.OID < recs[b].s.OID })

	seq := t.nextSeq.Add(1) - 1
	name := runFileName(shard, seq)
	w, err := newRunWriter(t.dir, name, db.tier.cfg.BloomBitsPerKey, len(recs))
	if err != nil {
		return err
	}
	live := make([]*object, 0, len(recs))
	for _, rec := range recs {
		if err := w.add(rec.runRecord); err != nil {
			w.abort()
			return err
		}
		if !rec.tombstone {
			live = append(live, rec.o)
		}
	}
	run, err := w.finish()
	if err != nil {
		return err
	}
	// The reset below deletes, and marks dead, the objects without a
	// registration: only the others enter the table and take the sequence.
	run.seq = seq
	for slot := range live {
		if o := live[w.slotLive(slot)]; o.reg != nil {
			run.setObj(slot, o)
		}
	}
	newRuns := make([]*tierRun, 0, len(t.runs)+1)
	newRuns = append(newRuns, run)
	newRuns = append(newRuns, t.runs...)
	if err := saveManifest(t.dir, tierManifestFor(shard, t.nextSeq.Load(), newRuns)); err != nil {
		run.retire(true)
		return err
	}
	t.setRuns(newRuns)
	for _, rec := range recs {
		if rec.o.reg != nil {
			rec.o.setSeq(seq)
		}
	}
	db.tier.flushes.Add(1)

	// The manifest rename committed: reset the memtable.
	db.resetMemtableLocked(sh)

	// Empty the WAL segment — the tail now covers only the (empty)
	// memtable. Best-effort: on failure the segment still replays to
	// content the new run shadows record-for-record.
	if db.wal != nil && db.wal.Err() == nil {
		if err := db.wal.CompactShard(shard, nil); err != nil {
			return fmt.Errorf("store: resetting WAL segment after flush of shard %d: %w", shard, err)
		}
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

// compactShardTier merges the shard's current runs (snapshotted under the
// read lock) into one, dropping superseded versions, tombstones and
// long-expired records, then atomically swaps the manifest. Readers never
// block: the merge reads immutable pinned runs off-lock, the merged run's
// ids are resolved to objects under the read lock a chunk at a time, and
// only the final list swap takes the shard's write lock. Flushes racing
// the merge only prepend runs, so the snapshot stays the exact suffix of
// the list. The caller holds maintMu, serializing compactions against
// each other.
func (db *ShardedSightingDB) compactShardTier(sh *sightingShard, shard int) error {
	sh.mu.RLock()
	t := sh.tier
	if t == nil || len(t.runs) < 2 {
		sh.mu.RUnlock()
		return nil
	}
	snap := make([]*tierRun, len(t.runs))
	copy(snap, t.runs)
	for _, r := range snap {
		r.acquire() // cannot fail: the manifest reference is alive under the lock
	}
	seq := t.nextSeq.Add(1) - 1
	sh.mu.RUnlock()

	releaseSnap := func() {
		for _, r := range snap {
			r.release()
		}
	}
	merged, err := db.mergeRuns(t, seq, snap, db.clock())
	if err != nil {
		releaseSnap()
		return err
	}
	var unknown []*object
	if merged != nil {
		merged.seq = seq
		unknown = sh.resolveObjs(merged)
	}

	sh.mu.Lock()
	if len(t.runs) < len(snap) {
		sh.mu.Unlock()
		if merged != nil {
			merged.retire(true)
		}
		releaseSnap()
		return nil
	}
	keep := t.runs[:len(t.runs)-len(snap)] // runs flushed since the snapshot
	newRuns := make([]*tierRun, 0, len(keep)+1)
	newRuns = append(newRuns, keep...)
	if merged != nil {
		newRuns = append(newRuns, merged)
	}
	if err := saveManifest(t.dir, tierManifestFor(shard, t.nextSeq.Load(), newRuns)); err != nil {
		sh.mu.Unlock()
		if merged != nil {
			merged.retire(true)
		}
		releaseSnap()
		return err
	}
	t.setRuns(newRuns)
	if len(keep) == 0 {
		// No run is newer than the merged one, so it holds the newest run
		// version of every object resolved. (A run flushed since the
		// snapshot may hold a version written for an earlier object of the
		// same id, which an object of unknown sequence cannot rule out.)
		for _, o := range unknown {
			if !o.dead && !o.seqKnown {
				o.setSeq(seq)
			}
		}
	}
	sh.mu.Unlock()
	for _, r := range snap {
		r.retire(true) // off the manifest: delete once in-flight readers finish
	}
	releaseSnap()
	db.tier.compactions.Add(1)
	return nil
}

// mergeRuns k-way-merges snap (newest first) into one run named seq.
// Per object only the newest version survives; tombstones are dropped
// outright (the merge covers the shard's whole run set, so there is
// nothing older left to shadow); records expired for more than one full
// TTL are dropped too — the extra TTL of slack guarantees the janitor's
// Expired scan observed them (and tore down dependent server state)
// before they vanish. Returns nil when every record was dropped, else the
// run.
func (db *ShardedSightingDB) mergeRuns(t *shardTier, seq uint64, snap []*tierRun, now time.Time) (*tierRun, error) {
	iters := make([]*runIterator, len(snap))
	heads := make([]runRecord, len(snap))
	valid := make([]bool, len(snap))
	var records int64
	for i, r := range snap {
		iters[i] = r.iter()
		heads[i], valid[i] = iters[i].next()
		records += r.count
	}
	var expireCutoff time.Time
	if db.ttl > 0 {
		expireCutoff = now.Add(-db.ttl)
	}
	name := runFileName(t.shard, seq)
	w, err := newRunWriter(t.dir, name, db.tier.cfg.BloomBitsPerKey, int(records))
	if err != nil {
		return nil, err
	}
	for {
		best := -1
		for i := range snap {
			if valid[i] && (best == -1 || heads[i].s.OID < heads[best].s.OID) {
				best = i // ties keep the lower index: the newer run wins
			}
		}
		if best == -1 {
			break
		}
		rec := heads[best]
		oid := rec.s.OID
		for i := range snap {
			for valid[i] && heads[i].s.OID == oid {
				heads[i], valid[i] = iters[i].next()
			}
		}
		if rec.tombstone {
			continue
		}
		if db.ttl > 0 && !rec.expires.IsZero() && rec.expires.Before(expireCutoff) {
			continue
		}
		if err := w.add(rec); err != nil {
			w.abort()
			return nil, err
		}
	}
	for i := range snap {
		if err := iters[i].error(); err != nil {
			w.abort()
			return nil, err
		}
	}
	if w.count == 0 {
		w.abort()
		return nil, nil
	}
	return w.finish()
}

// resolveChunk is how many ids resolveObjs looks up per read-lock hold,
// so a large merged run does not queue the shard's writers behind it.
const resolveChunk = 4096

// resolveObjs fills the object table of run, not yet published, from the
// shard's map by the ids of its spatial columns, under the read lock a chunk at a time,
// and lists the objects it found whose sequence is unknown. Like a flush,
// it leaves out objects without a registration: the next flush deletes
// them. An entry stays valid whatever happens before the run is
// published: an object deleted meanwhile is marked dead, and one flushed
// meanwhile carries a sequence newer than the run's.
func (sh *sightingShard) resolveObjs(run *tierRun) (unknown []*object) {
	n := int(run.live)
	for lo := 0; lo < n; lo += resolveChunk {
		sh.mu.RLock()
		for slot := lo; slot < min(lo+resolveChunk, n); slot++ {
			if o := sh.objs[run.id(slot)]; o != nil && o.reg != nil {
				run.setObj(slot, o)
				if !o.seqKnown {
					unknown = append(unknown, o)
				}
			}
		}
		sh.mu.RUnlock()
	}
	return unknown
}

// tierLookup walks runs (newest first) for id, gated by key range and
// bloom filter, and returns the newest on-disk version (possibly a
// tombstone — the caller interprets). The caller holds the shard lock
// (either mode) and has already consulted the memtable.
func tierLookup(ts *tierState, runs []*tierRun, id core.OID) (runRecord, bool) {
	key := string(id)
	for _, r := range runs {
		if r.count == 0 || id < r.minOID || id > r.maxOID {
			continue
		}
		if !r.bloom.mayContain(key) {
			ts.bloomMisses.Add(1)
			continue
		}
		ts.bloomHits.Add(1)
		rec, ok, err := r.get(id)
		if err != nil {
			ts.readErrs.Add(1)
			continue
		}
		if ok {
			return rec, true
		}
	}
	return runRecord{}, false
}

// judge is the verdict on a hit a spatial read took from runs[k] (a run
// list of the shard, newest first) at spatial slot slot: the accuracy of
// the registration of the record's object, id, and whether a newer version
// hides the record. A spatial read sees only the leaves its rectangle or
// frontier touches, so it cannot know from what it read that a newer
// version lies elsewhere; every hit is therefore judged — after the
// position test, so only candidates inside the query pay. With current
// (runs is the shard's run list now), the run's object table answers when
// it can (tableVerdict); otherwise, or without current, the id does
// (shadowed).
func (sh *sightingShard) judge(ts *tierState, runs []*tierRun, k, slot int, id core.OID, current bool) (acc float64, gone bool) {
	if current {
		if acc, gone, ok := runs[k].tableVerdict(slot); ok {
			return acc, gone
		}
	}
	return sh.shadowed(ts, runs[:k], id)
}

// tableVerdict judges the hit at slot from the run's object table alone,
// without hashing the id: ok is false unless the entry names a live object
// (not deleted from its shard's map) whose sequence is known. The memtable
// holding that object hides the hit, and so does a newer run: the object's
// sequence, that of the newest run this process wrote it into, is newer
// than the run's. Caller holds the shard lock and reads the shard's
// current run list.
func (r *tierRun) tableVerdict(slot int) (acc float64, gone, ok bool) {
	if r.objs == nil {
		return 0, false, false
	}
	o := r.objs[slot]
	if o == nil || o.dead || !o.seqKnown {
		return 0, false, false
	}
	return o.acc, o.mem != memNone || uint64(o.seq) > r.seq, true
}

// shadowed is judge by id: a version of id read from a run is not the
// authoritative one when the memtable holds the id (live or tombstoned),
// or one of newer — the runs ahead of that run in the list — contains it
// (live or tombstone); it also returns the accuracy of id's registration.
func (sh *sightingShard) shadowed(ts *tierState, newer []*tierRun, id core.OID) (acc float64, gone bool) {
	acc = AccUnknown
	if o := sh.objs[id]; o != nil {
		if o.mem != memNone {
			return acc, true
		}
		acc = o.acc
	}
	_, gone = tierLookup(ts, newer, id)
	return acc, gone
}

// tierScanAll streams every authoritative on-disk record of the shard —
// newest-first run order with a seen-set, skipping tombstones and ids
// the memtable owns (live or tombstoned) — through visit. Full
// enumeration only (Expired): the seen-set makes first
// occurrence authoritative, which requires scanning every run. Caller
// holds the shard lock; reports false if visit stopped the scan.
func (sh *sightingShard) tierScanAll(ts *tierState, visit func(rec runRecord) bool) bool {
	t := sh.tier
	if t == nil || len(t.runs) == 0 {
		return true
	}
	var seen map[core.OID]struct{}
	if len(t.runs) > 1 {
		seen = make(map[core.OID]struct{})
	}
	for _, r := range t.runs {
		if r.count == 0 {
			continue
		}
		stopped := false
		err := r.scan(func(rec runRecord) bool {
			id := rec.s.OID
			if seen != nil {
				if _, ok := seen[id]; ok {
					return true
				}
				seen[id] = struct{}{}
			}
			if rec.tombstone {
				return true
			}
			if o := sh.objs[id]; o != nil && o.mem != memNone {
				return true
			}
			if !visit(rec) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			ts.readErrs.Add(1)
		}
		if stopped {
			return false
		}
	}
	return true
}

// tierSearch hands visit the shard's authoritative run-resident sightings
// inside rect, one batch per spatial leaf. Per run it walks the leaf
// directory, tests the resident positions of the leaves whose MBR
// intersects rect, and judges a slot only when its position lies inside
// rect; nothing is read from disk. A batch's items carry their
// registration's accuracy, an id aliasing the run's id column and, as Ref,
// the run (*tierRun); sub bounds the batch, which lies inside rect. Caller
// holds the shard lock; reports false if visit stopped the search.
func (sh *sightingShard) tierSearch(ts *tierState, rect geo.Rect, visit func(items []spatial.Item, sub geo.Rect, inside bool) bool) bool {
	t := sh.tier
	if t == nil || len(t.runs) == 0 {
		return true
	}
	hits := runHitsPool.Get().(*runHits)
	defer runHitsPool.Put(hits)
	var scanned int64
	defer func() {
		if scanned > 0 {
			ts.leavesScanned.Add(scanned)
		}
	}()
	for k, r := range t.runs {
		if r.live == 0 || !r.mbr.IntersectsClosed(rect) {
			continue
		}
		for i, mbr := range r.leaves {
			if !mbr.IntersectsClosed(rect) {
				continue
			}
			scanned++
			n := 0
			var sub geo.Rect
			for slot := i * runLeafEntries; slot < min((i+1)*runLeafEntries, len(r.pos)); slot++ {
				p := r.pos[slot]
				if !rect.ContainsClosed(p) {
					continue
				}
				id := r.id(slot)
				acc, gone := sh.judge(ts, t.runs, k, slot, id, true)
				if gone {
					continue
				}
				if n == 0 {
					sub = geo.Rect{Min: p, Max: p}
				} else {
					sub.GrowToInclude(p)
				}
				hits.items[n] = spatial.Item{ID: id, Pos: p, Ref: r, Acc: acc}
				n++
			}
			if n > 0 && !visit(hits.items[:n], sub, true) {
				return false
			}
		}
	}
	return true
}

// tierNearestSource builds the nearest-neighbor merge source covering the
// shard's disk runs: MinDist is the closest distance any run's MBR
// permits, so the lazy merge never opens the runs of a shard whose disk
// content lies beyond the consumer's stopping distance. When opened, the
// source is a best-first cursor over the runs' spatial leaves
// (tierNearestCursor), so a consumer that stops after k neighbors tests
// only the leaves its frontier reached.
func (db *ShardedSightingDB) tierNearestSource(sh *sightingShard, p geo.Point) (spatial.CursorSource, bool) {
	sh.mu.RLock()
	t := sh.tier
	minDist := math.Inf(1)
	if t != nil {
		for _, r := range t.runs {
			if r.live == 0 {
				continue
			}
			if d := r.mbr.DistToPoint(p); d < minDist {
				minDist = d
			}
		}
	}
	sh.mu.RUnlock()
	if math.IsInf(minDist, 1) {
		return spatial.CursorSource{}, false
	}
	return spatial.CursorSource{MinDist: minDist, Open: func() spatial.Cursor {
		c := &tierNearestCursor{sh: sh, ts: db.tier, p: p}
		sh.mu.RLock()
		c.runs = append(c.runs, sh.tier.runs...)
		c.swaps = sh.tier.swaps
		for k, r := range c.runs {
			r.acquire() // cannot fail: the manifest reference is alive under the lock
			for i, mbr := range r.leaves {
				c.h.Push(mbr.DistToPoint(p), tierNearestItem{run: int32(k), at: uint32(i), leaf: true})
			}
		}
		sh.mu.RUnlock()
		return spatial.LockCursor(&sh.mu, c)
	}}, true
}

// tierNearestItem is one frontier slot of a tierNearestCursor: a spatial
// leaf not yet expanded, keyed by its MBR's distance (at the leaf), or one
// spatial slot of an expanded leaf, keyed by its position's distance.
type tierNearestItem struct {
	run  int32 // index into the cursor's run list
	at   uint32
	leaf bool
}

// tierNearestCursor streams one shard's authoritative run-resident
// sightings in order of increasing distance from p, best-first over the
// leaf directories and resident positions of a pinned snapshot of the
// shard's run list (newest first). Every advance runs under the shard's
// read lock (spatial.LockCursor): the verdict reads the memtable. If the
// shard flushes or compacts between advances the stream degrades to a
// best-effort snapshot, as the Cursor contract allows. A neighbor carries
// its registration's accuracy and, as Ref, its run. The run tables judge
// hits only while the pinned list is the shard's current one (swaps
// unchanged).
type tierNearestCursor struct {
	sh      *sightingShard
	ts      *tierState
	p       geo.Point
	runs    []*tierRun
	swaps   uint64
	h       spatial.MinHeap[tierNearestItem]
	scanned int64
}

// Next implements spatial.Cursor.
func (c *tierNearestCursor) Next() (spatial.Neighbor, bool) {
	for c.h.Len() > 0 {
		dist, it := c.h.Pop()
		r := c.runs[it.run]
		if it.leaf {
			c.scanned++
			for slot := int(it.at) * runLeafEntries; slot < min(int(it.at+1)*runLeafEntries, len(r.pos)); slot++ {
				c.h.Push(c.p.Dist(r.pos[slot]), tierNearestItem{run: it.run, at: uint32(slot)})
			}
			continue
		}
		id := r.id(int(it.at))
		current := c.sh.tier.swaps == c.swaps
		acc, gone := c.sh.judge(c.ts, c.runs, int(it.run), int(it.at), id, current)
		if gone {
			continue
		}
		return spatial.Neighbor{ID: id, Pos: r.pos[it.at], Dist: dist, Ref: r, Acc: acc}, true
	}
	return spatial.Neighbor{}, false
}

// Close implements spatial.Cursor, unpinning the runs.
func (c *tierNearestCursor) Close() {
	if c.runs == nil {
		return
	}
	if c.scanned > 0 {
		c.ts.leavesScanned.Add(c.scanned)
	}
	for _, r := range c.runs {
		r.release()
	}
	c.runs = nil
}

// MaintainTiers runs one maintenance pass: flush every shard whose
// memtable exceeds its budget share, then compact every shard whose run
// count exceeds MaxRuns. It replaces CompactWALIfGrown on tiered stores
// and is likewise cheap when nothing grew and safe on every janitor
// tick. A pass is skipped while recovery is still warming the memtables
// or while another maintenance or compaction pass runs.
func (db *ShardedSightingDB) MaintainTiers() error {
	ts := db.tier
	if ts == nil || !ts.warmed.Load() {
		return nil
	}
	if !db.maintMu.TryLock() {
		return nil
	}
	defer db.maintMu.Unlock()
	var errs []error
	for i, sh := range db.shards {
		sh.mu.RLock()
		hasTier := sh.tier != nil
		over := hasTier && sh.memBytes > ts.budget
		sh.mu.RUnlock()
		if !hasTier {
			continue
		}
		if over {
			sh.lockWrite()
			err := db.flushShardLocked(sh, i)
			sh.mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				continue
			}
		}
		sh.mu.RLock()
		needCompact := len(sh.tier.runs) > ts.cfg.MaxRuns
		sh.mu.RUnlock()
		if needCompact {
			if err := db.compactShardTier(sh, i); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// maybeFlushBackpressure flushes the shard inline when its memtable has
// run past twice its budget share — the hard bound that keeps resident
// memory within the configured budget even if the janitor falls behind
// the update rate. Called on the put path with the shard's write lock
// held; best-effort (the put itself already committed).
func (db *ShardedSightingDB) maybeFlushBackpressure(sh *sightingShard, shard int) {
	ts := db.tier
	if ts == nil || sh.tier == nil || sh.memBytes <= 2*ts.budget {
		return
	}
	// A failure is retried, and reported, by the janitor's next
	// MaintainTiers pass: the shard stays over its budget.
	_ = db.flushShardLocked(sh, shard)
}

// TierStats snapshots the tiering machinery. Zero-valued (Enabled false)
// on untiered stores.
func (db *ShardedSightingDB) TierStats() TierStats {
	ts := db.tier
	if ts == nil {
		return TierStats{}
	}
	out := TierStats{
		Enabled:       true,
		Warm:          ts.warmed.Load(),
		Flushes:       ts.flushes.Load(),
		Compactions:   ts.compactions.Load(),
		BloomHits:     ts.bloomHits.Load(),
		BloomMisses:   ts.bloomMisses.Load(),
		LeavesScanned: ts.leavesScanned.Load(),
		ReadErrors:    ts.readErrs.Load(),
	}
	for _, sh := range db.shards {
		sh.mu.RLock()
		out.MemtableBytes += sh.memBytes
		if sh.tier != nil {
			out.Runs += len(sh.tier.runs)
			if len(sh.tier.runs) > ts.cfg.MaxRuns {
				out.Backlog++
			}
			for _, r := range sh.tier.runs {
				out.DiskRecords += r.count
				out.DiskLive += r.live
				out.RunBytes += r.size
				out.MetaBytes += r.metaBytes()
			}
		}
		sh.mu.RUnlock()
	}
	return out
}
