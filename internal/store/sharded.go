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

	regLog WAL // WithRegistrationLog
}

type sightingShard struct {
	mu sync.RWMutex
	// objs is the shard's hash index, one object per id (object).
	objs map[core.OID]*object
	// idx is the shard's spatial index: one item per memtable sighting, with
	// its *object (Ref) and accuracy (Acc), so its Len counts them.
	idx *spatial.Quadtree
	// regMu is held, besides mu, by every change to objs' membership and to
	// a registration, so a reader may hold either: regMu alone serves the
	// server's registration reads (every in-area update's), which would
	// otherwise queue behind the shard's writers and range scans on a
	// one-shard leaf. nreg counts registrations, guarded like them.
	regMu sync.RWMutex
	nreg  int

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

	// one is a single put's log batch, reused under the write lock: a
	// batch escapes because the record encoder's error path formats a
	// sighting's id and time (appendWALRecord), and this one is allocated
	// once.
	one [1]core.Sighting

	// Tiered mode only (tier non-nil, attached when the store opens its
	// tiers). A tombstone marks an id removed since the last flush whose
	// older versions may still live in a run; a flush persists it as a
	// tombstone record. mem lists the ids the memtable holds a sighting or
	// a tombstone for, so a flush visits the memtable, not every object.
	// memBytes, the flush trigger, is their approximate resident cost.
	tier     *shardTier
	mem      []core.OID
	memBytes int64
}

// obj returns id's object, creating an empty one. Caller holds the write lock.
func (sh *sightingShard) obj(id core.OID) *object {
	if o := sh.objs[id]; o != nil {
		return o
	}
	return sh.insert(id, &object{acc: AccUnknown})
}

// insert makes o id's object. Caller holds the write lock.
func (sh *sightingShard) insert(id core.OID, o *object) *object {
	sh.regMu.Lock()
	sh.objs[id] = o
	sh.regMu.Unlock()
	return o
}

// dropIfEmpty deletes id's object once nothing is left on it.
func (sh *sightingShard) dropIfEmpty(id core.OID, o *object) {
	if o.mem != memNone || o.reg != nil {
		return
	}
	sh.regMu.Lock()
	sh.deleteObj(id, o)
	sh.regMu.Unlock()
}

// deleteObj removes id's object o from the map and marks it dead, so the
// run tables that still hold it judge its hits by id. Caller holds the
// write lock and regMu.
func (sh *sightingShard) deleteObj(id core.OID, o *object) {
	delete(sh.objs, id)
	o.dead = true
}

// setMem makes st, never memNone on a tiered shard (only a flush empties
// its memtable), what the memtable holds for o, keeping mem and memBytes;
// the spatial index is the caller's. Caller holds the write lock.
func (sh *sightingShard) setMem(id core.OID, o *object, st memState) {
	if sh.tier != nil {
		if o.mem == memNone {
			sh.mem = append(sh.mem, id)
		}
		sh.memBytes += memCost(st, id) - memCost(o.mem, id)
	}
	o.mem = st
}

// eachMem visits the objects the memtable holds something for — through
// mem on a tiered shard, else every object — until visit returns false.
// Caller holds the shard lock.
func (sh *sightingShard) eachMem(visit func(id core.OID, o *object) bool) {
	if sh.tier != nil {
		for _, id := range sh.mem {
			if !visit(id, sh.objs[id]) {
				return
			}
		}
		return
	}
	for id, o := range sh.objs {
		if o.mem != memNone && !visit(id, o) {
			return
		}
	}
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
	if sh.idx.Len() == 0 {
		sh.nonempty = false
		sh.stale = 0
		return
	}
	sh.stale++
	if sh.stale <= sh.idx.Len() {
		return
	}
	first := true
	var b geo.Rect
	sh.eachMem(func(_ core.OID, o *object) bool {
		switch {
		case o.mem != memSighting:
		case first:
			b, first = geo.Rect{Min: o.pos, Max: o.pos}, false
		default:
			b.GrowToInclude(o.pos)
		}
		return true
	})
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
			objs: make(map[core.OID]*object),
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
		out[i] = ShardStat{Len: sh.idx.Len(), Ops: sh.ops.Load(), Contended: sh.contended.Load()}
		sh.mu.RUnlock()
	}
	return out
}

// rebuildIndexLocked bulk-loads the shard's quadtree from its memtable
// sightings (Quadtree.Rebuild) and recomputes the bounding rectangle.
// Caller holds the shard's write lock.
func (sh *sightingShard) rebuildIndexLocked() {
	var items []spatial.Item
	sh.nonempty = false
	sh.eachMem(func(id core.OID, o *object) bool {
		if o.mem == memSighting {
			items = append(items, o.item(id))
			sh.noteInsert(o.pos)
		}
		return true
	})
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
		n += sh.idx.Len()
		if sh.tier != nil {
			for _, r := range sh.tier.runs {
				n += int(r.live)
			}
			n -= len(sh.mem) - sh.idx.Len() // the tombstones
		}
		sh.mu.RUnlock()
	}
	if n < 0 {
		n = 0
	}
	return n
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
		sh.one[0] = s
		_ = db.wal.AppendBatch(shard, sh.one[:])
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

// putLocked makes s its object's memtable sighting with a fresh lease.
// Caller holds the shard's write lock.
func (db *ShardedSightingDB) putLocked(sh *sightingShard, s core.Sighting) Delta {
	d := Delta{Op: DeltaPut, OID: s.OID, New: s.Pos}
	o := sh.obj(s.OID)
	if o.mem == memSighting {
		d.Old, d.HasOld = o.pos, true
		sh.idx.Remove(s.OID, o.pos)
		sh.noteRemove()
	}
	db.setSighting(sh, o, s, db.leaseEnd())
	sh.idx.InsertItem(o.item(s.OID))
	sh.noteInsert(s.Pos)
	return d
}

// leaseEnd is the expiry of a sighting put now: zeroNanos without a TTL.
func (db *ShardedSightingDB) leaseEnd() int64 {
	if db.ttl <= 0 {
		return zeroNanos
	}
	return db.clock().Add(db.ttl).UnixNano()
}

// expired reports whether a lease ending at expires has run out by now.
func (db *ShardedSightingDB) expired(expires int64, now time.Time) bool {
	return db.ttl > 0 && expires != zeroNanos && now.UnixNano() > expires
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
	_, s, _, ok := db.lookupLocked(sh, id)
	return s, ok
}

// lookupLocked returns id's object (nil if none) and its sighting and lease
// end, from the memtable or, unless a tombstone hides them, the runs.
func (db *ShardedSightingDB) lookupLocked(sh *sightingShard, id core.OID) (o *object, s core.Sighting, expires int64, found bool) {
	o = sh.objs[id]
	if o != nil && o.mem == memSighting {
		return o, o.sighting(id), o.expires, true
	}
	if sh.tier != nil && (o == nil || o.mem != memTomb) {
		if rec, ok := tierLookup(db.tier, sh.tier.runs, id); ok && !rec.tombstone {
			return o, rec.s, unixNanos(rec.expires), true
		}
	}
	return o, core.Sighting{}, zeroNanos, false
}

// setSighting makes s o's memtable sighting, leased until expires; the
// spatial index is the caller's. Caller holds the shard's write lock.
func (db *ShardedSightingDB) setSighting(sh *sightingShard, o *object, s core.Sighting, expires int64) {
	sh.setMem(s.OID, o, memSighting)
	o.pos, o.sensAcc, o.t, o.expires = s.Pos, s.SensAcc, unixNanos(s.T), expires
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
		sh.eachMem(func(id core.OID, o *object) bool {
			if o.mem == memSighting && db.expired(o.expires, now) {
				out = append(out, id)
			}
			return true
		})
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

// SearchArea implements SightingStore on SearchBuckets: each sighting
// inside the closed rectangle r, rebuilt from its record — a memtable one
// from its object, a cold one by a point lookup in the run that holds it,
// since the run keeps only its position and id resident (and the object of
// a run opened from disk holds no sighting).
func (db *ShardedSightingDB) SearchArea(r geo.Rect, visit func(s core.Sighting) bool) {
	db.SearchBuckets(r, func(items []spatial.Item, _ geo.Rect, inside bool) bool {
		for i := range items {
			it := &items[i]
			if !inside && !r.ContainsClosed(it.Pos) {
				continue
			}
			var s core.Sighting
			switch ref := it.Ref.(type) {
			case *object:
				s = ref.sighting(it.ID)
			case *tierRun:
				rec, ok := tierLookup(db.tier, []*tierRun{ref}, it.ID)
				if !ok {
					continue // a read error, counted
				}
				s = rec.s
			}
			if !visit(s) {
				return false
			}
		}
		return true
	})
}

// SearchBuckets is the store's one rectangle search. It fans r across the
// shards whose bounding rectangle meets it and hands visit, under each
// shard's read lock (a consistent snapshot per shard), the shard's index
// entries a bucket at a time, in the form of spatial.Quadtree.SearchBuckets:
// the memtable's leaf buckets and dividers' residents in place, then the
// authoritative run-resident hits one batch per run leaf, each batch inside
// r. An item carries the id, the position and the accuracy (AccUnknown for
// an unregistered object) — see "Covering index entries" — so a consumer
// qualifies a candidate without the record behind it; its Ref is the
// store's own. Items are valid for the visit call only; the id of a cold
// one aliases its run's resident id block, which a consumer keeping the id
// keeps alive. Returning false from visit stops the search.
func (db *ShardedSightingDB) SearchBuckets(r geo.Rect, visit func(items []spatial.Item, sub geo.Rect, inside bool) bool) {
	for _, sh := range db.shards {
		sh.mu.RLock()
		more := true
		if sh.nonempty && sh.bound.IntersectsClosed(r) {
			more = sh.idx.SearchBuckets(r, visit)
		}
		if more && sh.tier != nil {
			// Disk-resident records, through the runs' resident spatial
			// columns.
			more = sh.tierSearch(db.tier, r, visit)
		}
		sh.mu.RUnlock()
		if !more {
			return
		}
	}
}

// NearestFunc implements SightingStore by merging resumable per-shard
// nearest-neighbor cursors in global distance order. Each shard is locked
// only for the duration of one cursor advance, so writers are not starved
// by a long enumeration, and a shard whose bounding rectangle lies beyond
// the distance at which the consumer stops is never opened at all. A
// neighbor is rebuilt from its object under the lock the stream holds (one
// untiered shard) or else re-resolved through Get, since objects change in
// place once the lock is released.
func (db *ShardedSightingDB) NearestFunc(p geo.Point, visit func(s core.Sighting, dist float64) bool) {
	db.nearest(p, func(n spatial.Neighbor, locked bool) bool {
		if locked {
			return visit(n.Ref.(*object).sighting(n.ID), n.Dist)
		}
		s, found := db.Get(n.ID)
		return !found || visit(s, n.Dist)
	})
}

// NearestEntries is NearestFunc at index-entry level, like SearchBuckets:
// every neighbor, memtable or cold, is delivered off its cursor's entry —
// id, position and registration's accuracy, copies taken under the shard
// lock — so a cold one reads no disk.
func (db *ShardedSightingDB) NearestEntries(p geo.Point, visit func(id core.OID, pos geo.Point, acc, dist float64) bool) {
	db.nearest(p, func(n spatial.Neighbor, _ bool) bool {
		return visit(n.ID, n.Pos, n.Acc, n.Dist)
	})
}

// nearest is the merge behind NearestFunc and NearestEntries. visit
// receives each neighbor with its accuracy (n.Acc) and, as n.Ref, its
// object (memtable) or its run (cold); locked reports that visit runs
// under the neighbor's shard lock, so the object may be read.
func (db *ShardedSightingDB) nearest(p geo.Point, visit func(n spatial.Neighbor, locked bool) bool) {
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
		// Capture the sub-index now, under the lock: a tier flush replaces
		// the memtable's tree and never mutates the old one again, so a cursor opened later on
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
		if !visit(n, false) {
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
// Each shard's records fold into its objects (batches apply in order, later
// entries superseding earlier ones; removals delete), which then bulk-load
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
// leftovers, loading each shard's manifest, run metadata and spatial
// columns (O(metadata + columns), no record reads) — and then replays only the short WAL tail covering
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
// of a barrier: it opens the tiers synchronously (run metadata and
// columns are all a disk-resident read needs), takes every shard's write lock, returns,
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
	if n := sh.idx.Len(); n != 0 {
		return fmt.Errorf("store: recovering shard %d over %d live records (Recover must run on an empty store)", shard, n)
	}
	tiered := sh.tier != nil
	expires := db.leaseEnd()
	replayed := int64(0)
	err := db.wal.ReplayShard(shard, func(rec WALRecord) error {
		switch rec.Op {
		case WALSightingBatch:
			for _, s := range rec.Sightings {
				db.setSighting(sh, sh.obj(s.OID), s, expires)
			}
			replayed += int64(len(rec.Sightings))
		case WALSightingRemove:
			o := sh.obj(rec.OID)
			if tiered {
				// The removed id's older versions may live in a run:
				// rebuild the memtable tombstone that shadowed them.
				sh.setMem(rec.OID, o, memTomb)
			} else {
				sh.setMem(rec.OID, o, memNone)
				sh.dropIfEmpty(rec.OID, o)
			}
			replayed++
		default:
			return fmt.Errorf("store: unexpected WAL op %q in sighting shard %d", rec.Op, shard)
		}
		return nil
	})
	if err != nil {
		db.resetMemtableLocked(sh)
		return fmt.Errorf("store: replaying sighting shard %d: %w", shard, err)
	}
	sh.rebuildIndexLocked()
	// Tiered shards never rewrite the segment from the live set here: that
	// would drop the tail's tombstones and resurrect run-resident versions
	// on the next crash. Their segment is reset by the next flush instead.
	if !tiered && replayed > int64(sh.idx.Len())+walCompactSlack {
		// The history dwarfs the live set: rewrite the segment now so the
		// next restart replays the snapshot, not the churn. Best-effort —
		// a failure (full disk, say) keeps the original correct log, so
		// recovery itself still succeeds; the janitor's grow-triggered
		// pass will retry later.
		_ = db.wal.CompactShard(shard, sh.liveSnapshot())
	}
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
		grown := appended > int64(sh.idx.Len())+walCompactSlack
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

// compactShard rewrites one shard's segment to its live set under the
// shard's lock, so no append can land between the snapshot and the rename.
// Caller holds maintMu, so no other pass rewrites the segment meanwhile.
func (db *ShardedSightingDB) compactShard(i int) error {
	sh := db.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.wal.CompactShard(i, sh.liveSnapshot())
}

// liveSnapshot copies the shard's live sightings. Caller holds the shard's
// lock.
func (sh *sightingShard) liveSnapshot() []core.Sighting {
	live := make([]core.Sighting, 0, sh.idx.Len())
	sh.eachMem(func(id core.OID, o *object) bool {
		if o.mem == memSighting {
			live = append(live, o.sighting(id))
		}
		return true
	})
	return live
}
