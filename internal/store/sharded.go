package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// ShardedSightingDB is a SightingStore partitioned into N independently
// locked shards keyed by object id. Each shard owns its slice of the hash
// index and its own spatial sub-index, both guarded by one shard lock — so
// the Remove+Insert pair of an update is applied atomically per shard and
// updates to different shards never contend.
//
// Sharding is by object id, not by space: the update path (the hot path of
// the paper's workloads) stays O(1) lock acquisitions regardless of where
// an object moves, while range and nearest-neighbor queries fan out across
// all shards and merge. Range results concatenate; nearest-neighbor streams
// merge in global distance order via resumable per-shard cursors
// (spatial.MergeSources), each shard advanced exactly one neighbor at a
// time. Every shard also maintains a conservative bounding rectangle over
// its live positions (grown on insert, lazily tightened after removals —
// see the spatial package documentation for the invariant), so a range
// search skips shards whose rectangle misses the query and the
// nearest-neighbor merge never opens a shard whose rectangle lies beyond
// the consumer's stopping distance.
//
// The shard count is fixed when the store is built: WithShards sets it, or
// an attached WAL's persisted layout does. Every operation finds its shard
// with one hash of the object id.
type ShardedSightingDB struct {
	shards []*sightingShard
	ttl    time.Duration
	clock  func() time.Time

	// maintMu serializes the passes that rewrite per-shard persistent
	// state across the whole store: CompactWALIfGrown and MaintainTiers.
	maintMu sync.Mutex

	// wal, when non-nil, receives every committed batch and removal
	// before it is applied; appends happen under the owning shard's lock,
	// so each segment's order matches its shard's application order. A
	// failed append marks the WAL down and stops further logging, keeping
	// every segment a consistent prefix of its shard's history; the
	// sticky error is surfaced through WALErr. The store itself stays
	// available without the log — the sightingDB is soft state, as in the
	// paper's baseline.
	wal *ShardedWAL

	// tier, when non-nil, turns each shard into the memtable of a small
	// per-shard LSM tree (see lsm.go and the package comment): the shard's
	// in-memory state covers only the recent tail, older versions live in
	// immutable sorted runs on disk, and every read path consults the runs
	// behind the memtable. Nil on all-RAM stores, the default.
	tier *tierState

	// replNotify, when set, observes every tier-structure change (flush,
	// compaction) for run shipping to a standby; replStandby suppresses
	// local tier maintenance while this store mirrors a primary. See
	// repl.go.
	replNotify  atomic.Pointer[replNotifyBox]
	replStandby atomic.Bool
	regLog      WAL // WithRegistrationLog
}

type sightingShard struct {
	mu sync.RWMutex
	// idx is the shard's spatial index. Every item carries its
	// *sightingEntry (Ref) and that entry's accuracy (Acc), so range and
	// nearest-neighbor searches resolve records straight off the tree
	// instead of re-hashing every match through byID.
	idx  *spatial.Quadtree
	byID map[core.OID]*sightingEntry
	// regs is the shard's registration table (registration.go), never
	// flushed with the memtable. A change holds mu and regMu, so a reader
	// may hold either: regMu alone serves the server's registration reads
	// (every in-area update's), which would otherwise queue behind the
	// shard's writers and range scans on a one-shard leaf.
	regs  map[core.OID]Registration
	regMu sync.RWMutex

	// ops and contended sample write-lock pressure: ops counts write-path
	// lock acquisitions, contended the subset that found the lock already
	// held (TryLock failed). Diagnostics export both (ShardStats).
	ops       atomic.Int64
	contended atomic.Int64

	// bound conservatively contains every live position; nonempty and
	// stale implement the lazily-tightened invariant (recompute once
	// stale removals outnumber live records — amortized O(1)).
	bound    geo.Rect
	nonempty bool
	stale    int

	// Tiered mode only (tier non-nil, attached when the store opens its
	// tiers). dead holds the memtable's tombstones: ids removed since the
	// last flush whose older versions may still live in a run — a flush
	// persists them as tombstone records and clears the map. memBytes is
	// the approximate resident cost of byID + dead, the flush trigger.
	tier     *shardTier
	dead     map[core.OID]struct{}
	memBytes int64
}

// lockWrite acquires the shard's write lock, sampling contention: a failed
// TryLock means another goroutine held the lock at the moment of arrival.
func (sh *sightingShard) lockWrite() {
	if !sh.mu.TryLock() {
		sh.contended.Add(1)
		sh.mu.Lock()
	}
	sh.ops.Add(1)
}

// noteInsert grows the shard's bounding rectangle to cover p. Caller holds
// the shard's write lock.
func (sh *sightingShard) noteInsert(p geo.Point) {
	if !sh.nonempty {
		sh.bound = geo.Rect{Min: p, Max: p}
		sh.nonempty = true
		sh.stale = 0
		return
	}
	sh.bound.GrowToInclude(p)
}

// noteRemove records a removal against the bounding rectangle, tightening
// it lazily via the co-located hash index. Caller holds the shard's write
// lock.
func (sh *sightingShard) noteRemove() {
	if len(sh.byID) == 0 {
		sh.nonempty = false
		sh.stale = 0
		return
	}
	sh.stale++
	if sh.stale <= len(sh.byID) {
		return
	}
	first := true
	var b geo.Rect
	for _, e := range sh.byID {
		if first {
			b = geo.Rect{Min: e.s.Pos, Max: e.s.Pos}
			first = false
			continue
		}
		b.GrowToInclude(e.s.Pos)
	}
	sh.bound = b
	sh.stale = 0
}

var _ SightingStore = (*ShardedSightingDB)(nil)

// NewShardedSightingDB returns an empty sharded sighting database. The
// shard count comes from WithShards (default 1: one lock, and the direct
// paths with nothing to group or merge); with WithSightingWAL the store
// adopts the WAL's segment count instead, since the persistent log records
// the id→shard mapping its segments were written under. Call Recover before
// use to replay an existing log. The count never changes afterwards.
func NewShardedSightingDB(opts ...SightingDBOption) *ShardedSightingDB {
	cfg := defaultSightingConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.wal != nil {
		cfg.shards = cfg.wal.NumShards()
	}
	db := &ShardedSightingDB{
		ttl:    cfg.ttl,
		clock:  cfg.clock,
		wal:    cfg.wal,
		regLog: cfg.regLog,
	}
	if cfg.tier != nil {
		tc := cfg.tier.withDefaults()
		budget := tc.MemtableBytes / int64(cfg.shards)
		if budget < 4096 {
			budget = 4096
		}
		db.tier = &tierState{cfg: tc, budget: budget}
		if cfg.wal != nil {
			db.tier.dir = cfg.wal.Dir()
		}
	}
	db.shards = make([]*sightingShard, cfg.shards)
	for i := range db.shards {
		db.shards[i] = &sightingShard{
			idx:  spatial.NewQuadtree(),
			byID: make(map[core.OID]*sightingEntry),
			regs: make(map[core.OID]Registration),
		}
	}
	return db
}

// NormalizeShards is the single place shard-count configuration is
// validated and defaulted: negative counts are an error, zero means "use
// the default" (one shard), anything else passes through. Every surface
// that accepts a shard count (server.Options, locsvc.LocalConfig, lsd
// -shards) funnels through here instead of clamping locally.
func NormalizeShards(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("store: negative shard count %d", n)
	}
	if n == 0 {
		return 1, nil
	}
	return n, nil
}

// ShardStat is one shard's occupancy and write-lock pressure snapshot, as
// exported through diagnostics.
type ShardStat struct {
	// Len is the shard's record count.
	Len int
	// Ops is the cumulative number of write-path lock acquisitions.
	Ops int64
	// Contended is the subset of Ops that found the lock already held.
	Contended int64
}

// ShardStats returns a point-in-time snapshot of the shards. The counters
// are cumulative; callers interested in rates keep the previous snapshot
// and difference.
func (db *ShardedSightingDB) ShardStats() []ShardStat {
	out := make([]ShardStat, len(db.shards))
	for i, sh := range db.shards {
		sh.mu.RLock()
		out[i] = ShardStat{Len: len(sh.byID), Ops: sh.ops.Load(), Contended: sh.contended.Load()}
		sh.mu.RUnlock()
	}
	return out
}

// rebuildIndexLocked bulk-loads the shard's quadtree from its hash index
// (Quadtree.Rebuild), one item per record carrying the record and its
// accuracy. Caller holds the shard's write lock.
func (sh *sightingShard) rebuildIndexLocked() {
	items := make([]spatial.Item, 0, len(sh.byID))
	for _, e := range sh.byID {
		items = append(items, e.item())
	}
	sh.idx.Rebuild(items)
}

// NumShards implements SightingStore.
func (db *ShardedSightingDB) NumShards() int { return len(db.shards) }

// ShardFor maps an object id to its shard.
func (db *ShardedSightingDB) ShardFor(id core.OID) int {
	return spatial.ShardFor(id, len(db.shards))
}

// lockOwner returns id's shard, write-locked, together with its index.
func (db *ShardedSightingDB) lockOwner(id core.OID) (*sightingShard, int) {
	i := db.ShardFor(id)
	sh := db.shards[i]
	sh.lockWrite()
	return sh, i
}

// Len returns the number of stored sighting records. Across shards the
// count is a best-effort snapshot under concurrent writes, exact whenever
// the store is quiescent — the same contract every cross-shard read has.
// On a tiered store the count additionally includes the runs' live
// records and is an upper-bound estimate: a record present in the
// memtable and a run, or in several overlapping runs, is counted once
// per copy until compaction merges them (Σ live − tombstones); exact
// again whenever the shard's runs are compacted and the memtable holds
// only new ids.
func (db *ShardedSightingDB) Len() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		n += len(sh.byID)
		if sh.tier != nil {
			for _, r := range sh.tier.runs {
				n += int(r.live)
			}
			n -= len(sh.dead)
		}
		sh.mu.RUnlock()
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Put inserts or replaces the record for s.OID and refreshes its
// expiration date: the one-record form of PutBatch.
func (db *ShardedSightingDB) Put(s core.Sighting) {
	db.putOne(s, nil)
}

// putOne commits one sighting, appending its delta to *out when out is
// non-nil.
func (db *ShardedSightingDB) putOne(s core.Sighting, out *[]Delta) {
	sh, i := db.lockOwner(s.OID)
	d := db.putOneLocked(sh, i, s)
	sh.mu.Unlock()
	if out != nil {
		*out = append(*out, d)
	}
}

// putOneLocked logs and applies one sighting. Caller holds the shard's
// write lock.
func (db *ShardedSightingDB) putOneLocked(sh *sightingShard, shard int, s core.Sighting) Delta {
	if db.wal != nil {
		_ = db.wal.AppendBatch(shard, []core.Sighting{s})
	}
	d := db.putLocked(sh, s)
	db.maybeFlushBackpressure(sh, shard)
	return d
}

// PutBatch implements SightingStore: later entries for the same object
// override earlier ones. The batch is grouped by shard and each group
// applied under a single lock acquisition. Within a group, updates to the
// same object are coalesced — only the last sighting per object touches
// the spatial index, fusing its Remove+Insert pair once instead of once per
// superseded update — and yield one delta spanning the pre-batch position
// and the final one.
func (db *ShardedSightingDB) PutBatch(batch []core.Sighting, out []Delta) []Delta {
	var deltas *[]Delta // nil: none wanted
	if out != nil {
		deltas = &out
	}
	switch len(batch) {
	case 0:
		return out
	case 1:
		db.putOne(batch[0], deltas)
		return out
	}
	n := len(db.shards)
	if n == 1 {
		db.putGroup(0, batch, deltas)
		return out
	}
	// Fast path: batches assembled by a per-shard pipeline lane are
	// single-shard by construction; detect that without allocating the
	// per-shard grouping.
	first := spatial.ShardFor(batch[0].OID, n)
	same := true
	for _, s := range batch[1:] {
		if spatial.ShardFor(s.OID, n) != first {
			same = false
			break
		}
	}
	if same {
		db.putGroup(first, batch, deltas)
		return out
	}
	groups := make([][]core.Sighting, n)
	for _, s := range batch {
		i := spatial.ShardFor(s.OID, n)
		groups[i] = append(groups[i], s)
	}
	for i, grp := range groups {
		if len(grp) > 0 {
			db.putGroup(i, grp, deltas)
		}
	}
	return out
}

// putGroup applies one shard's slice of a batch under one lock acquisition,
// coalescing superseded updates to the same object. With a WAL attached the
// whole group becomes a single write-ahead append — the batch is the
// durability unit, amortizing marshal and flush cost the same way the
// pipeline's combining lane amortizes lock cost. When out is non-nil every
// applied put appends its delta — on the coalesced path only the surviving
// last-per-object puts apply, so each emitted delta spans pre-batch old to
// batch-final new.
func (db *ShardedSightingDB) putGroup(shard int, group []core.Sighting, out *[]Delta) {
	sh := db.shards[shard]
	sh.lockWrite()
	defer sh.mu.Unlock()
	defer db.maybeFlushBackpressure(sh, shard) // runs before the unlock
	if db.wal != nil {
		_ = db.wal.AppendBatch(shard, group)
	}
	emit := func(d Delta) {
		if out != nil {
			*out = append(*out, d)
		}
	}
	if len(group) > 1 {
		// Keep only the last update per object; earlier ones are
		// observationally dead once the batch commits atomically.
		last := make(map[core.OID]int, len(group))
		for i, s := range group {
			last[s.OID] = i
		}
		if len(last) < len(group) {
			for i, s := range group {
				if last[s.OID] == i {
					emit(db.putLocked(sh, s))
				}
			}
			return
		}
	}
	for _, s := range group {
		emit(db.putLocked(sh, s))
	}
}

// putLocked installs s in the memtable. The entry keeps the accuracy of
// the entry it replaces, which every registration change keeps current; a
// new entry takes its registration's. Caller holds the shard's write lock.
func (db *ShardedSightingDB) putLocked(sh *sightingShard, s core.Sighting) Delta {
	old := sh.byID[s.OID]
	var acc float64
	if old != nil {
		acc = old.acc
		sh.idx.Remove(s.OID, old.s.Pos)
		sh.noteRemove()
	} else {
		acc = sh.regAcc(s.OID)
		if db.tier != nil {
			sh.memBytes += memCost(s.OID)
			if _, wasDead := sh.dead[s.OID]; wasDead {
				delete(sh.dead, s.OID)
				sh.memBytes -= tombCost(s.OID)
			}
		}
	}
	entry := &sightingEntry{s: s, acc: acc}
	if db.ttl > 0 {
		entry.expires = db.clock().Add(db.ttl)
	}
	sh.byID[s.OID] = entry
	sh.idx.InsertItem(entry.item())
	sh.noteInsert(s.Pos)
	return putDelta(s, old)
}

// Get implements SightingStore. On a tiered store a memtable miss falls
// through to the disk runs, newest to oldest, gated by each run's key
// range and bloom filter; a memtable tombstone answers "gone" without
// touching disk. Tiered or not, Get does not filter records whose TTL has
// passed but whose expiry has not been swept yet.
func (db *ShardedSightingDB) Get(id core.OID) (core.Sighting, bool) {
	sh := db.shards[db.ShardFor(id)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, _, ok := db.lookupLocked(sh, id)
	return e.s, ok
}

// lookupLocked returns id's memtable entry (hot) or else its newest live
// run version, with its registration's accuracy. Caller holds the lock.
func (db *ShardedSightingDB) lookupLocked(sh *sightingShard, id core.OID) (e sightingEntry, hot, found bool) {
	if p, ok := sh.byID[id]; ok {
		return *p, true, true
	}
	if sh.tier != nil {
		if _, gone := sh.dead[id]; !gone {
			if rec, ok := sh.tierLookup(db.tier, id); ok && !rec.tombstone {
				return sightingEntry{s: rec.s, expires: rec.expires, acc: sh.regAcc(id)}, false, true
			}
		}
	}
	return sightingEntry{}, false, false
}

// removeLocked logs and applies the removal of id's sighting at pos, hot
// or run-resident (by tombstone). Caller holds the shard's write lock.
func (db *ShardedSightingDB) removeLocked(sh *sightingShard, shard int, id core.OID, pos geo.Point, hot bool) {
	if db.wal != nil {
		_ = db.wal.AppendRemove(shard, id)
	}
	if hot {
		sh.idx.Remove(id, pos)
		delete(sh.byID, id)
		sh.noteRemove()
		if db.tier != nil {
			sh.memBytes -= memCost(id)
		}
	}
	if db.tier != nil {
		db.tombstoneLocked(sh, id)
	}
}

// tombstoneLocked records a memtable tombstone for id. Caller holds the
// shard's write lock on a tiered store.
func (db *ShardedSightingDB) tombstoneLocked(sh *sightingShard, id core.OID) {
	if sh.dead == nil {
		sh.dead = make(map[core.OID]struct{})
	}
	if _, ok := sh.dead[id]; !ok {
		sh.dead[id] = struct{}{}
		sh.memBytes += tombCost(id)
	}
}

// Expired returns the ids of all records whose soft-state TTL passed, from
// a full scan, shard by shard.
func (db *ShardedSightingDB) Expired() []core.OID {
	if db.ttl <= 0 {
		return nil
	}
	var out []core.OID
	for _, sh := range db.shards {
		now := db.clock()
		sh.mu.RLock()
		for id, e := range sh.byID {
			if !e.expires.IsZero() && now.After(e.expires) {
				out = append(out, id)
			}
		}
		if sh.tier != nil {
			// Run-resident records expire too: report them so the caller
			// tears them down through the normal removal path (which
			// plants the tombstone) before compaction drops them. Full run
			// scans — the janitor's backstop cadence, not a hot path.
			sh.tierScanAll(db.tier, func(rec runRecord) bool {
				if !rec.expires.IsZero() && now.After(rec.expires) {
					out = append(out, rec.s.OID)
				}
				return true
			})
		}
		sh.mu.RUnlock()
	}
	return out
}

// SearchArea implements SightingStore by fanning the rectangle across the
// shards whose bounding rectangle intersects it. Each shard is visited
// under its read lock; the search is a consistent snapshot per shard.
func (db *ShardedSightingDB) SearchArea(r geo.Rect, visit func(s core.Sighting) bool) {
	db.search(r, hitSink{rec: visit})
}

// SearchEntries is SearchArea at index-entry level: visit receives the id,
// the position and the accuracy (AccUnknown for an unregistered object) of
// every match, memtable hits read off the index entries without the record
// behind them, run hits with their registration's accuracy.
func (db *ShardedSightingDB) SearchEntries(r geo.Rect, visit func(id core.OID, pos geo.Point, acc float64) bool) {
	db.search(r, hitSink{entry: visit})
}

// search runs the rectangle search over every shard until sink stops it.
func (db *ShardedSightingDB) search(r geo.Rect, sink hitSink) {
	// One pooled scan for all shards.
	sc := newIndexScan(sink)
	defer sc.release()
	for _, sh := range db.shards {
		sh.mu.RLock()
		if sh.nonempty && sh.bound.IntersectsClosed(r) {
			sc.search(sh.idx, r)
		}
		if !sc.stopped && sh.tier != nil {
			// Disk-resident records, through the runs' spatial leaves.
			sc.sh = sh
			sh.tierSearch(db.tier, r, sc.cold)
		}
		sh.mu.RUnlock()
		if sc.stopped {
			return
		}
	}
}

// NearestFunc implements SightingStore by merging resumable per-shard
// nearest-neighbor cursors in global distance order. Each shard is locked
// only for the duration of one cursor advance, so writers are not starved
// by a long enumeration, and a shard whose bounding rectangle lies beyond
// the distance at which the consumer stops is never opened at all. A
// memtable neighbor is delivered as the record the cursor's item points
// at — the record that was live when its shard's cursor advanced — with no
// second lookup. Cold neighbors of a tiered store are re-resolved through
// Get, which skips entries removed since the advance.
func (db *ShardedSightingDB) NearestFunc(p geo.Point, visit func(s core.Sighting, dist float64) bool) {
	db.nearest(p, func(n spatial.Neighbor, e *sightingEntry) bool {
		if e != nil {
			return visit(e.s, n.Dist)
		}
		s, found := db.Get(n.ID)
		return !found || visit(s, n.Dist)
	})
}

// NearestEntries is NearestFunc at index-entry level, like SearchEntries:
// memtable neighbors are delivered off the cursor's index entries. A
// neighbor that NearestFunc would re-resolve through Get is re-resolved
// here too, with its registration's accuracy.
func (db *ShardedSightingDB) NearestEntries(p geo.Point, visit func(id core.OID, pos geo.Point, acc, dist float64) bool) {
	db.nearest(p, func(n spatial.Neighbor, e *sightingEntry) bool {
		if e != nil {
			return visit(n.ID, n.Pos, n.Acc, n.Dist)
		}
		reg, s, registered, found := db.Lookup(n.ID)
		if !registered {
			reg.OfferedAcc = AccUnknown
		}
		return !found || visit(s.OID, s.Pos, reg.OfferedAcc, n.Dist)
	})
}

// nearest is the merge behind NearestFunc and NearestEntries. visit
// receives each neighbor with its memtable record and with n.Acc set to
// that record's accuracy, both read off the cursor's item, or with a nil
// record when the neighbor is a cold hit, to be re-resolved by id (the
// runs' cursors carry no payload).
func (db *ShardedSightingDB) nearest(p geo.Point, visit func(n spatial.Neighbor, e *sightingEntry) bool) {
	if len(db.shards) == 1 && db.tier == nil {
		// Nothing to merge: stream straight off the sub-index.
		sh := db.shards[0]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		streamNearest(sh.idx, p, visit)
		return
	}
	var seen map[core.OID]bool
	if db.tier != nil {
		// A record can surface from both a shard's memtable cursor and
		// its run cursor (it moved while the query ran); dedupe by id.
		seen = make(map[core.OID]bool)
	}
	srcs := make([]spatial.CursorSource, 0, len(db.shards))
	for _, sh := range db.shards {
		sh := sh
		sh.mu.RLock()
		usable := sh.nonempty
		// Capture the sub-index now, under the lock: a tier flush (or a
		// replicated snapshot install) replaces the memtable's tree and
		// never mutates the old one again, so a cursor opened later on
		// this capture stays valid even if the shard flushes before the
		// merge opens it.
		idx := sh.idx
		minDist := 0.0
		if usable {
			minDist = sh.bound.DistToPoint(p)
		}
		sh.mu.RUnlock()
		if db.tier != nil {
			if src, ok := db.tierNearestSource(sh, p); ok {
				srcs = append(srcs, src)
			}
		}
		if !usable {
			continue
		}
		srcs = append(srcs, spatial.CursorSource{MinDist: minDist, Open: func() spatial.Cursor {
			sh.mu.RLock()
			inner := idx.NearestCursor(p)
			sh.mu.RUnlock()
			return spatial.LockCursor(&sh.mu, inner)
		}})
	}
	c := spatial.MergeSources(srcs)
	defer c.Close()
	for {
		n, ok := c.Next()
		if !ok {
			return
		}
		if seen != nil {
			if seen[n.ID] {
				continue
			}
			seen[n.ID] = true
		}
		e, _ := n.Ref.(*sightingEntry)
		if !visit(n, e) {
			return
		}
	}
}

// ForEach visits every stored sighting in unspecified order.
func (db *ShardedSightingDB) ForEach(visit func(s core.Sighting) bool) {
	for _, sh := range db.shards {
		stopped := false
		sh.mu.RLock()
		for _, e := range sh.byID {
			if !visit(e.s) {
				stopped = true
				break
			}
		}
		if !stopped && sh.tier != nil {
			stopped = !sh.tierScanAll(db.tier, func(rec runRecord) bool {
				return visit(rec.s)
			})
		}
		sh.mu.RUnlock()
		if stopped {
			return
		}
	}
}

// String implements fmt.Stringer for diagnostics.
func (db *ShardedSightingDB) String() string {
	return fmt.Sprintf("ShardedSightingDB(%d shards, %d records)", db.NumShards(), db.Len())
}

// WALErr returns the sticky error of the first failed WAL append, or nil
// while the WAL is healthy (or absent). After a non-nil return the WAL has
// stopped logging and recovery will replay only the state up to the
// failure.
func (db *ShardedSightingDB) WALErr() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Err()
}

// Recover rebuilds the store from its attached WAL, replaying all shard
// segments concurrently — the recovery-time payoff of sharding the log.
// Each shard's records fold into a live set (batches apply in order, later
// entries superseding earlier ones; removals delete), which then bulk-loads
// the shard's spatial index in one balanced build (Quadtree.Rebuild)
// instead of per-record inserts — replay input arrives in systematic
// order, the incremental-insertion worst case.
//
// Recover must run before the store is shared: it requires every shard to
// be empty and takes each shard's lock for the whole rebuild. Replayed
// records get a fresh soft-state TTL lease — the paper's expiry semantics
// re-age them if their objects stay silent after the restart. Without an
// attached WAL, Recover is a no-op.
// On a tiered store Recover first opens the tiers — sweeping crash
// leftovers, loading each shard's manifest and run metadata (O(metadata),
// no record reads) — and then replays only the short WAL tail covering
// the current memtable: everything older was flushed into a run before
// its segment was reset. That is the recovery-time payoff of tiering —
// restart cost proportional to the hot set, not the history. See
// RecoverBackground for serving reads before the replay finishes.
func (db *ShardedSightingDB) Recover() error {
	if err := db.openTiers(); err != nil {
		return err
	}
	if err := db.replayRegistrations(); err != nil {
		return err
	}
	if db.wal == nil {
		db.markWarm()
		return nil
	}
	errs := make([]error, len(db.shards))
	var wg sync.WaitGroup
	for i := range db.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = db.recoverShard(i)
		}(i)
	}
	wg.Wait()
	err := errors.Join(errs...)
	if err == nil {
		db.markWarm()
	}
	return err
}

// markWarm opens tier maintenance once recovery completed cleanly.
func (db *ShardedSightingDB) markWarm() {
	if db.tier != nil {
		db.tier.warmed.Store(true)
	}
}

// RecoverBackground is Recover with a per-shard readiness gate instead
// of a barrier: it opens the tiers synchronously (run metadata is all a
// disk-resident read needs), takes every shard's write lock, returns,
// and replays the WAL tails on background goroutines that release each
// shard's lock as soon as that shard's memtable is warm. An operation
// arriving before then simply blocks on the owning shard's lock for at
// most that shard's tail replay — bounded by the memtable budget — so a
// leaf restarting over a large tier serves disk-resident reads almost
// immediately instead of stalling for a full-store replay. WaitRecovered
// joins the background replay; tier maintenance stays gated until every
// shard is warm. On an untiered store it falls back to the synchronous
// Recover (there is no disk tier to serve from in the meantime).
func (db *ShardedSightingDB) RecoverBackground() error {
	ts := db.tier
	if ts == nil || db.wal == nil {
		return db.Recover()
	}
	if err := db.openTiers(); err != nil {
		return err
	}
	if err := db.replayRegistrations(); err != nil {
		return err
	}
	if !ts.warming.CompareAndSwap(false, true) {
		return errors.New("store: RecoverBackground called twice")
	}
	for _, sh := range db.shards {
		sh.mu.Lock()
	}
	ts.warmLeft = len(db.shards)
	ts.warmWG.Add(len(db.shards))
	for i := range db.shards {
		go func(i int) {
			defer ts.warmWG.Done()
			err := db.recoverShardLocked(i)
			db.shards[i].mu.Unlock()
			// The last shard to finish opens maintenance before its Done,
			// so WaitRecovered never returns ahead of warmed.
			ts.warmMu.Lock()
			ts.warmErr = errors.Join(ts.warmErr, err)
			if ts.warmLeft--; ts.warmLeft == 0 && ts.warmErr == nil {
				ts.warmed.Store(true)
			}
			ts.warmMu.Unlock()
		}(i)
	}
	return nil
}

// WaitRecovered blocks until a RecoverBackground replay has warmed every
// shard and returns its joined error. Immediate on stores recovered
// synchronously (or not at all).
func (db *ShardedSightingDB) WaitRecovered() error {
	ts := db.tier
	if ts == nil {
		return nil
	}
	ts.warmWG.Wait()
	ts.warmMu.Lock()
	defer ts.warmMu.Unlock()
	return ts.warmErr
}

// recoverShard replays one shard's segment and bulk-loads the shard.
func (db *ShardedSightingDB) recoverShard(shard int) error {
	sh := db.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.recoverShardLocked(shard)
}

// recoverShardLocked is recoverShard with the shard's write lock already
// held by the caller.
func (db *ShardedSightingDB) recoverShardLocked(shard int) error {
	sh := db.shards[shard]
	if len(sh.byID) != 0 {
		return fmt.Errorf("store: recovering shard %d over %d live records (Recover must run on an empty store)", shard, len(sh.byID))
	}
	tiered := sh.tier != nil
	live := make(map[core.OID]core.Sighting)
	var dead map[core.OID]struct{}
	if tiered {
		dead = make(map[core.OID]struct{})
	}
	replayed := int64(0)
	err := db.wal.ReplayShard(shard, func(rec WALRecord) error {
		switch rec.Op {
		case WALSightingBatch:
			for _, s := range rec.Sightings {
				live[s.OID] = s
				if tiered {
					delete(dead, s.OID)
				}
			}
			replayed += int64(len(rec.Sightings))
		case WALSightingRemove:
			delete(live, rec.OID)
			if tiered {
				// The removed id's older versions may live in a run:
				// rebuild the memtable tombstone that shadowed them.
				dead[rec.OID] = struct{}{}
			}
			replayed++
		default:
			return fmt.Errorf("store: unexpected WAL op %q in sighting shard %d", rec.Op, shard)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: replaying sighting shard %d: %w", shard, err)
	}
	if tiered {
		sh.dead = dead
		sh.memBytes = 0
		for id := range dead {
			sh.memBytes += tombCost(id)
		}
		for id := range live {
			sh.memBytes += memCost(id)
		}
	}
	// Tiered shards never rewrite the segment from the live set here: that
	// would drop the tail's tombstones and resurrect run-resident versions
	// on the next crash. Their segment is reset by the next flush instead.
	if !tiered && replayed > int64(len(live))+walCompactSlack {
		// The history dwarfs the live set: rewrite the segment now so the
		// next restart replays the snapshot, not the churn. Best-effort —
		// a failure (full disk, say) keeps the original correct log, so
		// recovery itself still succeeds; the janitor's grow-triggered
		// pass will retry later.
		liveSlice := make([]core.Sighting, 0, len(live))
		for _, s := range live {
			liveSlice = append(liveSlice, s)
		}
		_ = db.wal.CompactShard(shard, liveSlice, nil)
	}
	var expires time.Time
	if db.ttl > 0 {
		expires = db.clock().Add(db.ttl)
	}
	for _, s := range live {
		sh.byID[s.OID] = &sightingEntry{s: s, expires: expires, acc: sh.regAcc(s.OID)}
		sh.noteInsert(s.Pos)
	}
	sh.rebuildIndexLocked()
	return nil
}

// CompactWALIfGrown compacts only the shards whose segment has grown by
// more than one live-set (plus walCompactSlack) since their last compaction — the
// classic log-structured policy: amortized rewrite cost stays a constant
// fraction of append work, and an idle or freshly compacted shard is never
// rewritten. Cheap when nothing grew; safe to call on every janitor tick.
// While another compaction pass runs the call is skipped.
func (db *ShardedSightingDB) CompactWALIfGrown() error {
	if db.tier != nil {
		// Tiered stores flush and compact through MaintainTiers: a
		// live-set rewrite would drop the segment's tombstones while their
		// shadowed versions still live in runs.
		return db.MaintainTiers()
	}
	if db.wal == nil || db.wal.Err() != nil {
		// A down WAL has stopped logging; there is nothing worth
		// rewriting and the sticky error is surfaced through WALErr.
		return nil
	}
	if !db.maintMu.TryLock() {
		return nil
	}
	defer db.maintMu.Unlock()
	var errs []error
	for i, sh := range db.shards {
		appended := db.wal.AppendedSince(i)
		if appended == 0 {
			continue
		}
		sh.mu.RLock()
		grown := appended > int64(len(sh.byID))+walCompactSlack
		sh.mu.RUnlock()
		if !grown {
			continue
		}
		if err := db.compactShard(i); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// compactShard snapshots one shard's live set under its lock and rewrites
// the segment outside it (BeginCompact/FinishCompact): updates only stall
// for the queue drain and the in-memory snapshot, while records appended
// during the rewrite wait in the buffer and land after the snapshot.
// Caller holds maintMu, so no other pass rewrites the segment meanwhile.
func (db *ShardedSightingDB) compactShard(i int) error {
	sh := db.shards[i]
	sh.mu.Lock()
	if err := db.wal.BeginCompact(i); err != nil {
		sh.mu.Unlock()
		return err
	}
	live := sh.liveSnapshot()
	sh.mu.Unlock()
	return db.wal.FinishCompact(i, live)
}

// liveSnapshot copies the shard's live sightings. Caller holds the shard's
// lock.
func (sh *sightingShard) liveSnapshot() []core.Sighting {
	live := make([]core.Sighting, 0, len(sh.byID))
	for _, e := range sh.byID {
		live = append(live, e.s)
	}
	return live
}
