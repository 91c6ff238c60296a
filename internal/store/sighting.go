// Package store implements the data-storage components of a location server
// (paper Section 5 and Fig. 7):
//
//   - SightingDB — the main-memory database of sighting records kept by leaf
//     servers, with a spatial index over positions (for range and nearest-
//     neighbor queries) and a hash index over object identifiers (for
//     position queries). Records carry soft-state expiration dates. The
//     sharded variant (ShardedSightingDB) partitions the database by object
//     id so updates scale across cores; UpdatePipeline batches concurrent
//     updates per shard (group commit under one lock acquisition). The
//     shard count adapts at runtime: Resize migrates the store to a new
//     count behind an epoch-versioned mapping without quiescing it, and
//     the AutoShard policy decides when, from write-lock contention
//     sampled on the shard mutexes and the pipeline lanes.
//   - VisitorDB — the per-server database of visitor records, persisted via
//     an append-only log so that forwarding paths survive crashes. The paper
//     used DB2 over JDBC; the log-plus-snapshot store here preserves the
//     property that matters (durability of forwarding paths) without an
//     external database.
//   - ShardedWAL — optional per-shard write-ahead logs for the sighting
//     store (WithSightingWAL): each group-commit batch is one log append,
//     and Recover replays all shards in parallel, bulk-loading each shard's
//     spatial index. See the wal.go file comment for the log format,
//     durability modes (WithSync) and recovery guarantees.
//   - ConfigRecord — the persistent configuration record describing a
//     server's service area, parent and children.
//
// # Covering index entries
//
// A memtable record's spatial index entry carries, beside the object id
// and the position, the object's offered accuracy (spatial.Item.Acc,
// mirrored on the record), so a range or nearest-neighbor query can build
// the location descriptor (pos, acc) and qualify a candidate from the index
// bucket alone — SearchEntries and NearestEntries dereference no record
// and their consumer needs no visitorDB lookup. The accuracy is derived
// state; the invariant around it:
//
//   - Who writes it. Only the caller of PutBatchAcc (UpdatePipeline.PutAcc)
//     and SetAcc — the leaf server, which hands down the OfferedAcc of the
//     visitor record it holds whenever it installs a sighting, and calls
//     SetAcc whenever it rewrites that OfferedAcc afterwards. The store
//     never invents, logs, ships or persists an accuracy: WAL records, run
//     files, replication streams and snapshots do not contain it.
//   - When it is unknown. AccUnknown (−1 — not the zero value, which means
//     "perfectly accurate") marks every entry that did not arrive with an
//     accuracy: Put, PutBatch, PutBatchDeltas and UpdatePipeline.Put, WAL
//     replay (Recover), ReplInstallSnapshot, Touch promoting a cold record,
//     and every hit read from a disk run. SearchEntries and NearestEntries
//     also report it for hits that have to be re-resolved by id (all hits
//     while a Resize is draining a generation); the resize itself carries
//     accuracies across, since they live on the records. Consumers resolve
//     an unknown accuracy through the source of truth, the visitorDB, so
//     nothing depends on an accuracy being present.
//   - Why it is never stale. An entry's accuracy changes only with the
//     entry — a put for the object replaces both under the shard lock — or
//     through SetAcc under the same lock, so the last writer wins, and the
//     server orders its writes so that the last writer carries the visitor
//     record's current value (server/rangequery.go, rangeScan). A flush
//     drops the memtable entries and their accuracies with them.
//
// # Tiered sighting storage
//
// With WithTiering, each shard of a ShardedSightingDB becomes the
// memtable of a small per-shard LSM tree, letting a leaf hold sighting
// populations larger than RAM and recover without replaying history.
//
// Run file format, version 2 (run-SSSS-NNNNNNNN.run, immutable once
// renamed into place; byte-level layout at the top of run.go):
//
//	[records][spatial leaves][bloom block][index block][leaf directory][112-byte footer]
//
// Records sort strictly ascending by object id; each is a flags byte
// (bit0 tombstone, bit1 T valid, bit2 expires valid), a uvarint-prefixed
// id, and — for live records — a fixed 40-byte payload (T, X, Y, SensAcc,
// expires). The spatial leaves index the live records by position: one
// 24-byte entry (X, Y, record offset) each, sorted along a Hilbert curve
// over the run's MBR and cut into leaves of 64; the leaf directory holds
// one MBR per leaf. The bloom block is a double-hashed FNV-1a filter over
// every record id (BloomBitsPerKey bits per key, default 10, ≈1% false
// positives). The index block holds the key range plus a sparse index
// (one entry per 16 records).
//
// Resident per run are the bloom filter, the sparse index and the leaf
// directory (≈0.5 B per live record); records and spatial leaves are
// read from disk on demand. The footer pins the region lengths, the
// record/live counts, the MBR of the live records and one CRC per kind
// of region: bloom + index + directory (verified at open, which reads
// only those — recovery stays O(metadata)), records (verified by every
// complete scan: compaction, enumeration, fetched-run verification) and
// spatial leaves (verified when a fetched run is checked before install;
// ordinary spatial reads validate each leaf structurally instead — see
// the read path). A file of another format version is refused at open
// with the version named; there is no fallback reader.
//
// Manifest format (shard-SSSS.manifest, JSON): the shard's run list,
// newest first, plus the next run sequence number. The manifest rename is
// the commit point of every flush and compaction; run files no manifest
// references are crash leftovers, swept at open.
//
// Write path: updates commit to the memtable (WAL-logged as before).
// When a shard's estimated memtable bytes exceed its share of
// MemtableBytes, MaintainTiers — driven by the server's janitor — freezes
// the memtable into a new run (live records and tombstones, id-sorted),
// prepends it to the manifest, clears the memtable and resets the WAL
// segment; at twice the share the update path flushes inline
// (backpressure). Flushes move data between tiers without changing the
// store's logical content, so they emit no deltas and the event pipeline
// is unaffected. Removing or expiring a record whose versions live only
// in runs plants a memtable tombstone that shadows them until compaction.
//
// Read path: Get consults memtable, then tombstones, then runs newest to
// oldest — each run gated by its key range and bloom filter, then one
// sparse-index probe reading at most 16 records. Both spatial query kinds
// read runs through the leaf directories: a range query takes the runs
// whose MBR intersects the rectangle, reads only the leaves whose
// directory MBR intersects it and tests the positions there; a
// nearest-neighbor query runs a best-first cursor over the leaves ordered
// by directory-MBR distance (merged behind the quadtree cursors and gated
// by run-MBR distance, so a shard whose runs lie beyond the consumer's
// stopping distance is never read). The shadow-check rule for these
// pruned reads: a leaf entry is only a candidate — the query did not read
// the places a newer version of the object could be — so for every entry
// that passes the position test (and only those) the record is read at
// its offset and its id checked against the memtable, the tombstone set
// and, bloom-gated, every newer run; a hit in any of them drops the
// candidate. A leaf whose entries leave its directory MBR or the records
// region, and an entry whose record is not live at the entry's position,
// are skipped and counted (TierStats.ReadErrors, gauge
// sighting_tier_read_errors) — as are failed reads, decode errors and
// checksum mismatches anywhere on the read path — so a damaged run shows
// up instead of silently shrinking answers.
//
// Compaction triggers: a shard exceeding MaxRuns runs (default 4) has its
// whole run set k-way merged into one run off-lock — newest version per
// id wins; tombstones and records expired for more than one full TTL are
// dropped (the one-TTL slack guarantees the janitor's Expired scan
// observed them first) — and the result installs under one manifest
// swap; readers pin runs by reference count, so nothing blocks and files
// unlink only after their last reader.
//
// Recovery order: load manifests → sweep unreferenced runs and
// temporaries → open run footers/metadata (no record reads) → replay the
// short WAL tail covering the current memtable. Recover does all of that
// before returning; RecoverBackground returns once the tiers are open
// and warms the memtables behind per-shard locks, so reads are served
// almost immediately after restart. The all-RAM mode (no WithTiering)
// remains the default and the differential-testing oracle.
package store

import (
	"fmt"
	"sync"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// sightingConfig collects the options shared by NewSightingDB and
// NewShardedSightingDB.
type sightingConfig struct {
	newIndex func() spatial.Index
	ttl      time.Duration
	clock    func() time.Time
	shards   int
	wal      *ShardedWAL
	tier     *TierConfig
}

func defaultSightingConfig() sightingConfig {
	return sightingConfig{
		newIndex: func() spatial.Index { return spatial.NewQuadtree() },
		clock:    time.Now,
		shards:   1,
	}
}

// SightingDBOption customizes a SightingDB or ShardedSightingDB.
type SightingDBOption func(*sightingConfig)

// WithIndex selects the spatial index implementation (default: quadtree,
// the paper's choice). A sharded database creates one index per shard.
func WithIndex(kind spatial.Kind) SightingDBOption {
	return func(c *sightingConfig) {
		c.newIndex = func() spatial.Index { return spatial.New(kind) }
	}
}

// WithTTL sets the soft-state time-to-live for sighting records. Zero
// disables expiration.
func WithTTL(ttl time.Duration) SightingDBOption {
	return func(c *sightingConfig) { c.ttl = ttl }
}

// WithClock injects a time source, used by tests to control expiry.
func WithClock(clock func() time.Time) SightingDBOption {
	return func(c *sightingConfig) { c.clock = clock }
}

// WithShards sets the shard count of a ShardedSightingDB (minimum 1).
// NewSightingDB ignores it: the single-lock database is one shard by
// definition.
func WithShards(n int) SightingDBOption {
	return func(c *sightingConfig) {
		if n >= 1 {
			c.shards = n
		}
	}
}

// WithSightingWAL attaches per-shard write-ahead logs to a
// ShardedSightingDB: every committed batch and removal is appended to the
// owning shard's log before it is applied, and Recover rebuilds the store
// from the logs after a crash. The store adopts the WAL's shard count
// (which is fixed by the persistent log — see ShardedWAL), overriding
// WithShards. NewSightingDB ignores the option; use a one-shard
// ShardedSightingDB for a durable single-lock store.
func WithSightingWAL(w *ShardedWAL) SightingDBOption {
	return func(c *sightingConfig) { c.wal = w }
}

// WithTiering enables tiered (LSM) sighting storage on a
// ShardedSightingDB: each shard becomes the memtable of a per-shard LSM
// tree whose sorted runs live under cfg.Dir (defaulting to the attached
// WAL's directory). See the package comment for the full spec. The tier
// activates when Recover or RecoverBackground opens it; the shard count
// is fixed while tiering is enabled (Resize errors, AutoShard must be
// off). NewSightingDB ignores the option.
func WithTiering(cfg TierConfig) SightingDBOption {
	return func(c *sightingConfig) {
		tc := cfg
		c.tier = &tc
	}
}

// SightingDB is the volatile sighting-record store of a leaf server. It is
// safe for concurrent use. Positions are indexed spatially; object ids are
// hash-indexed. Records expire after the configured TTL unless refreshed by
// updates — the soft-state principle of Section 5.
//
// Every operation serializes behind one lock; it is the seed-equivalent
// baseline and correctness oracle for ShardedSightingDB.
type SightingDB struct {
	mu  sync.RWMutex
	idx spatial.Index
	// items is idx narrowed to the payload-carrying capability (nil when
	// unsupported); see ShardedSightingDB for the rationale.
	items spatial.ItemIndex
	byID  map[core.OID]*sightingEntry
	ttl   time.Duration
	clock func() time.Time

	// sweep cursor for the amortized expiry scan (SweepExpired).
	sweepKeys []core.OID
	sweepPos  int
}

var _ SightingStore = (*SightingDB)(nil)

// sightingEntry is one memtable record. s and acc never change once the
// entry is published (an update or SetAcc installs a fresh entry), so a
// reader that got the pointer under the shard lock may keep reading them
// after releasing it; expires is refreshed in place under the write lock.
type sightingEntry struct {
	s       core.Sighting
	expires time.Time
	// acc is the object's offered accuracy as handed down by the server,
	// AccUnknown when it was not (see "Covering index entries" in the
	// package comment). The spatial index item carries a copy.
	acc float64
}

// item builds the entry's spatial index item.
func (e *sightingEntry) item() spatial.Item {
	return spatial.Item{ID: e.s.OID, Pos: e.s.Pos, Ref: e, Acc: e.acc}
}

// hitSink delivers the hits of a search at the level the caller asked for:
// entry receives (id, position, accuracy) read off the index entry without
// touching the record behind it; rec receives the whole sighting. Exactly
// one of the two is set.
type hitSink struct {
	entry func(id core.OID, pos geo.Point, acc float64) bool
	rec   func(s core.Sighting) bool
}

// item delivers a memtable hit. Caller holds the lock guarding byID.
func (k hitSink) item(it *spatial.Item, byID map[core.OID]*sightingEntry) bool {
	e, own := it.Ref.(*sightingEntry)
	acc := it.Acc
	if !own {
		// An index kind without item payloads: re-hash through byID.
		e = byID[it.ID]
		acc = e.acc
	}
	if k.entry != nil {
		return k.entry(it.ID, it.Pos, acc)
	}
	return k.rec(e.s)
}

// cold delivers a run-resident hit; runs do not record accuracies.
func (k hitSink) cold(s core.Sighting) bool {
	if k.entry != nil {
		return k.entry(s.OID, s.Pos, AccUnknown)
	}
	return k.rec(s)
}

// indexScan is the visitor state of one rectangle search, pooled with its
// visitor closures bound once so that a search allocates nothing: sink is
// where the hits go, byID the hash index of the sub-index being searched
// (rebound per shard), stopped whether the consumer ended the search.
type indexScan struct {
	sink    hitSink
	byID    map[core.OID]*sightingEntry
	stopped bool
	plain   spatial.Item // the current hit of an index kind without items

	item func(it *spatial.Item) bool
	id   func(id core.OID, p geo.Point) bool
	cold func(s core.Sighting) bool
}

var indexScanPool = sync.Pool{New: func() any {
	sc := new(indexScan)
	sc.item = func(it *spatial.Item) bool {
		if sc.sink.item(it, sc.byID) {
			return true
		}
		sc.stopped = true
		return false
	}
	sc.id = func(id core.OID, p geo.Point) bool {
		sc.plain = spatial.Item{ID: id, Pos: p}
		return sc.item(&sc.plain)
	}
	sc.cold = func(s core.Sighting) bool {
		if sc.sink.cold(s) {
			return true
		}
		sc.stopped = true
		return false
	}
	return sc
}}

func newIndexScan(sink hitSink) *indexScan {
	sc := indexScanPool.Get().(*indexScan)
	sc.sink = sink
	return sc
}

func (sc *indexScan) release() {
	sc.sink, sc.byID, sc.stopped, sc.plain = hitSink{}, nil, false, spatial.Item{}
	indexScanPool.Put(sc)
}

// search runs the rectangle search over one sub-index. Caller holds the
// lock guarding idx and byID.
func (sc *indexScan) search(idx spatial.Index, items spatial.ItemIndex, byID map[core.OID]*sightingEntry, r geo.Rect) {
	sc.byID = byID
	if items != nil {
		items.SearchItems(r, sc.item)
	} else {
		idx.Search(r, sc.id)
	}
}

// NewSightingDB returns an empty sighting database.
func NewSightingDB(opts ...SightingDBOption) *SightingDB {
	cfg := defaultSightingConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	db := &SightingDB{
		idx:   cfg.newIndex(),
		byID:  make(map[core.OID]*sightingEntry),
		ttl:   cfg.ttl,
		clock: cfg.clock,
	}
	db.items, _ = db.idx.(spatial.ItemIndex)
	return db
}

// Len returns the number of stored sighting records.
func (db *SightingDB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.byID)
}

// NumShards implements SightingStore: the single-lock database is one shard.
func (db *SightingDB) NumShards() int { return 1 }

// ShardFor implements SightingStore.
func (db *SightingDB) ShardFor(core.OID) int { return 0 }

// Put inserts or replaces the sighting record for s.OID and refreshes its
// expiration date. It implements both sightingDB.insert and
// sightingDB.update of the paper's algorithms.
func (db *SightingDB) Put(s core.Sighting) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.putLocked(s, AccUnknown)
}

// PutBatch applies a batch of puts under a single lock acquisition. Later
// entries for the same object override earlier ones, as if applied in order.
func (db *SightingDB) PutBatch(batch []core.Sighting) {
	db.putBatch(batch, nil, nil)
}

// PutBatchDeltas implements SightingStore. The single-lock database does not
// coalesce, so a batch with repeated objects yields one delta per entry, in
// application order.
func (db *SightingDB) PutBatchDeltas(batch []core.Sighting, out []Delta) []Delta {
	db.putBatch(batch, nil, &out)
	return out
}

// PutBatchAcc implements SightingStore.
func (db *SightingDB) PutBatchAcc(batch []core.Sighting, accs []float64, out []Delta) []Delta {
	if out == nil {
		db.putBatch(batch, accs, nil)
		return nil
	}
	db.putBatch(batch, accs, &out)
	return out
}

// putBatch applies batch in order, with accs[i] (when accs is non-nil)
// recorded on batch[i]'s index entry and the deltas appended to *out (when
// out is non-nil).
func (db *SightingDB) putBatch(batch []core.Sighting, accs []float64, out *[]Delta) {
	if len(batch) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, s := range batch {
		d := db.putLocked(s, accAt(accs, i))
		if out != nil {
			*out = append(*out, d)
		}
	}
}

// accAt returns the accuracy recorded for batch position i; a nil accs
// means the caller knows none.
func accAt(accs []float64, i int) float64 {
	if accs == nil {
		return AccUnknown
	}
	return accs[i]
}

func (db *SightingDB) putLocked(s core.Sighting, acc float64) Delta {
	old := db.byID[s.OID]
	if old != nil {
		db.idx.Remove(s.OID, old.s.Pos)
	}
	entry := &sightingEntry{s: s, acc: acc}
	if db.ttl > 0 {
		entry.expires = db.clock().Add(db.ttl)
	}
	db.byID[s.OID] = entry
	db.indexLocked(entry)
	return putDelta(s, old)
}

// indexLocked adds e to the spatial index.
func (db *SightingDB) indexLocked(e *sightingEntry) {
	if db.items != nil {
		db.items.InsertItem(e.item())
	} else {
		db.idx.Insert(e.s.OID, e.s.Pos)
	}
}

// SetAcc implements SightingStore.
func (db *SightingDB) SetAcc(id core.OID, acc float64) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.byID[id]
	if !ok {
		return false
	}
	if e.acc != acc {
		db.idx.Remove(id, e.s.Pos)
		e = &sightingEntry{s: e.s, expires: e.expires, acc: acc}
		db.byID[id] = e
		db.indexLocked(e)
	}
	return true
}

// Get returns the sighting record for id via the hash index.
func (db *SightingDB) Get(id core.OID) (core.Sighting, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.byID[id]
	if !ok {
		return core.Sighting{}, false
	}
	return e.s, true
}

// Remove deletes the record for id and reports whether it existed.
func (db *SightingDB) Remove(id core.OID) bool {
	_, ok := db.RemoveDelta(id)
	return ok
}

// RemoveDelta implements SightingStore.
func (db *SightingDB) RemoveDelta(id core.OID) (Delta, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.byID[id]
	if !ok {
		return Delta{}, false
	}
	db.idx.Remove(id, e.s.Pos)
	delete(db.byID, id)
	return removeDelta(id, e), true
}

// RemoveExpired deletes the record for id only if its soft-state TTL has
// passed, and reports whether it removed anything. Callers acting on a
// stale expiry observation (the janitor's Expired snapshot, the pipeline's
// amortized sweep) use it so a record refreshed since the observation
// survives.
func (db *SightingDB) RemoveExpired(id core.OID) bool {
	_, ok := db.RemoveExpiredDelta(id)
	return ok
}

// RemoveExpiredDelta implements SightingStore.
func (db *SightingDB) RemoveExpiredDelta(id core.OID) (Delta, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.byID[id]
	if !ok || db.ttl <= 0 || e.expires.IsZero() || !db.clock().After(e.expires) {
		return Delta{}, false
	}
	db.idx.Remove(id, e.s.Pos)
	delete(db.byID, id)
	return removeDelta(id, e), true
}

// Touch refreshes the expiration date of id without changing its sighting,
// used when a tracked object reports "no movement" heartbeats.
func (db *SightingDB) Touch(id core.OID) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	e, ok := db.byID[id]
	if !ok {
		return false
	}
	if db.ttl > 0 {
		e.expires = db.clock().Add(db.ttl)
	}
	return true
}

// Expired returns the ids of all records whose soft-state TTL has passed.
// The caller (the server's janitor) deregisters them.
func (db *SightingDB) Expired() []core.OID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.ttl <= 0 {
		return nil
	}
	now := db.clock()
	var out []core.OID
	for id, e := range db.byID {
		if !e.expires.IsZero() && now.After(e.expires) {
			out = append(out, id)
		}
	}
	return out
}

// SweepExpired examines at most max records — resuming where the previous
// sweep stopped — and returns the expired ids among them, each at most
// once per call (the cursor's key snapshot is refilled only at the start
// of a call, never mid-call, so a call cannot wrap around and re-report).
// It lets callers amortize expiry detection over the update path instead
// of scanning the whole database at once; the periodic Expired scan
// remains the backstop.
func (db *SightingDB) SweepExpired(max int) []core.OID {
	if max <= 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.ttl <= 0 || len(db.byID) == 0 {
		return nil
	}
	now := db.clock()
	var out []core.OID
	for examined := 0; examined < max; examined++ {
		if db.sweepPos >= len(db.sweepKeys) {
			if examined > 0 {
				break // snapshot exhausted mid-call: resume next call
			}
			db.sweepKeys = db.sweepKeys[:0]
			for id := range db.byID {
				db.sweepKeys = append(db.sweepKeys, id)
			}
			db.sweepPos = 0
		}
		id := db.sweepKeys[db.sweepPos]
		db.sweepPos++
		if e, ok := db.byID[id]; ok && !e.expires.IsZero() && now.After(e.expires) {
			out = append(out, id)
		}
	}
	return out
}

// SearchArea visits every sighting whose position lies within the closed
// rectangle r, via the spatial index. With a payload-carrying index the
// record is resolved straight off the index entry.
func (db *SightingDB) SearchArea(r geo.Rect, visit func(s core.Sighting) bool) {
	db.search(r, hitSink{rec: visit})
}

// SearchEntries implements SightingStore.
func (db *SightingDB) SearchEntries(r geo.Rect, visit func(id core.OID, pos geo.Point, acc float64) bool) {
	db.search(r, hitSink{entry: visit})
}

func (db *SightingDB) search(r geo.Rect, sink hitSink) {
	sc := newIndexScan(sink)
	defer sc.release()
	db.mu.RLock()
	defer db.mu.RUnlock()
	sc.search(db.idx, db.items, db.byID, r)
}

// NearestFunc visits sightings in order of increasing distance from p.
func (db *SightingDB) NearestFunc(p geo.Point, visit func(s core.Sighting, dist float64) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	streamNearest(db.idx, db.byID, p, func(n spatial.Neighbor, e *sightingEntry) bool {
		return visit(e.s, n.Dist)
	})
}

// NearestEntries implements SightingStore.
func (db *SightingDB) NearestEntries(p geo.Point, visit func(id core.OID, pos geo.Point, acc, dist float64) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	streamNearest(db.idx, db.byID, p, func(n spatial.Neighbor, _ *sightingEntry) bool {
		return visit(n.ID, n.Pos, n.Acc, n.Dist)
	})
}

// streamNearest walks one sub-index's nearest-neighbor cursor around p,
// handing visit each neighbor with its record and with n.Acc set to the
// record's accuracy — both read off the cursor's item when the index kind
// carries the payload, resolved through the hash index otherwise. Caller
// holds the lock guarding idx and byID.
func streamNearest(idx spatial.Index, byID map[core.OID]*sightingEntry, p geo.Point, visit func(n spatial.Neighbor, e *sightingEntry) bool) {
	c := idx.NearestCursor(p)
	defer c.Close()
	for {
		n, ok := c.Next()
		if !ok {
			return
		}
		e, own := n.Ref.(*sightingEntry)
		if !own {
			e = byID[n.ID]
			n.Acc = e.acc
		}
		if !visit(n, e) {
			return
		}
	}
}

// ForEach visits every stored sighting in unspecified order.
func (db *SightingDB) ForEach(visit func(s core.Sighting) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, e := range db.byID {
		if !visit(e.s) {
			return
		}
	}
}

// String implements fmt.Stringer for diagnostics.
func (db *SightingDB) String() string {
	return fmt.Sprintf("SightingDB(%d records)", db.Len())
}
