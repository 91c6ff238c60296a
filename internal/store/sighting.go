package store

import (
	"sync"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// sightingConfig collects the options of NewShardedSightingDB.
type sightingConfig struct {
	ttl    time.Duration
	clock  func() time.Time
	shards int
	wal    *ShardedWAL
	tier   *TierConfig
	regLog WAL
}

func defaultSightingConfig() sightingConfig {
	return sightingConfig{
		clock:  time.Now,
		shards: 1,
	}
}

// SightingDBOption customizes a ShardedSightingDB.
type SightingDBOption func(*sightingConfig)

// WithTTL sets the soft-state time-to-live for sighting records. Zero
// disables expiration.
func WithTTL(ttl time.Duration) SightingDBOption {
	return func(c *sightingConfig) { c.ttl = ttl }
}

// WithClock injects a time source, used by tests to control expiry.
func WithClock(clock func() time.Time) SightingDBOption {
	return func(c *sightingConfig) { c.clock = clock }
}

// WithShards sets the shard count of a ShardedSightingDB (minimum 1, the
// default).
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
// WithShards.
func WithSightingWAL(w *ShardedWAL) SightingDBOption {
	return func(c *sightingConfig) { c.wal = w }
}

// WithTiering enables tiered (LSM) sighting storage on a
// ShardedSightingDB: each shard becomes the memtable of a per-shard LSM
// tree whose sorted runs live in the directory of the sighting WAL, which
// must be attached with WithSightingWAL. See the package comment for the
// full spec. The tier activates when Recover or RecoverBackground opens
// it; both refuse a tiered store without a sighting WAL.
func WithTiering(cfg TierConfig) SightingDBOption {
	return func(c *sightingConfig) {
		tc := cfg
		c.tier = &tc
	}
}

// sightingEntry is one memtable record. s and acc never change once the
// entry is published (an update or an accuracy change installs a fresh
// one), so a reader that got the pointer under the shard lock may keep
// reading them after releasing it; expires is refreshed in place under the
// write lock.
type sightingEntry struct {
	s       core.Sighting
	expires time.Time
	// acc is the OfferedAcc of the object's registration, AccUnknown when
	// it has none (see "Covering index entries" in the package comment).
	// The spatial index item carries a copy.
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

// item delivers a memtable hit off its index item, whose Ref is the
// record. Caller holds the lock guarding the shard's index.
func (k hitSink) item(it *spatial.Item) bool {
	if k.entry != nil {
		return k.entry(it.ID, it.Pos, it.Acc)
	}
	return k.rec(it.Ref.(*sightingEntry).s)
}

// cold delivers a run-resident hit of shard sh with its registration's
// accuracy. Caller holds sh's lock.
func (k hitSink) cold(sh *sightingShard, s core.Sighting) bool {
	if k.entry != nil {
		return k.entry(s.OID, s.Pos, sh.regAcc(s.OID))
	}
	return k.rec(s)
}

// indexScan is the visitor state of one rectangle search, pooled with its
// visitor closures bound once so that a search allocates nothing: sink is
// where the hits go, stopped whether the consumer ended the search, sh the
// shard whose runs the search is reading.
type indexScan struct {
	sink    hitSink
	stopped bool
	sh      *sightingShard

	item func(it *spatial.Item) bool
	cold func(s core.Sighting) bool
}

var indexScanPool = sync.Pool{New: func() any {
	sc := new(indexScan)
	sc.item = func(it *spatial.Item) bool {
		if sc.sink.item(it) {
			return true
		}
		sc.stopped = true
		return false
	}
	sc.cold = func(s core.Sighting) bool {
		if sc.sink.cold(sc.sh, s) {
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
	sc.sink, sc.stopped, sc.sh = hitSink{}, false, nil
	indexScanPool.Put(sc)
}

// search runs the rectangle search over one shard's quadtree. Caller holds
// the lock guarding idx.
func (sc *indexScan) search(idx *spatial.Quadtree, r geo.Rect) {
	idx.SearchItems(r, sc.item)
}

// NewSightingDB returns an empty one-shard sighting database.
//
// Deprecated: use NewShardedSightingDB. The name survives only for the
// frozen benchmark rig (bench/rig/replay.go).
func NewSightingDB(opts ...SightingDBOption) *ShardedSightingDB {
	return NewShardedSightingDB(opts...)
}

// streamNearest walks one shard quadtree's nearest-neighbor cursor around
// p, handing visit each neighbor with its record and its accuracy (n.Acc),
// both read off the cursor's item. Caller holds the lock guarding idx.
func streamNearest(idx *spatial.Quadtree, p geo.Point, visit func(n spatial.Neighbor, e *sightingEntry) bool) {
	c := idx.NearestCursor(p)
	defer c.Close()
	for {
		n, ok := c.Next()
		if !ok || !visit(n, n.Ref.(*sightingEntry)) {
			return
		}
	}
}
