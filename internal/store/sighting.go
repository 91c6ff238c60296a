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

// object is everything a shard knows about one id, under one key of its
// hash index (Section 5): the memtable sighting, the registration and the
// tombstone; the shard deletes it once none is left. Instants are UnixNano
// (zeroNanos for the zero Time). Objects change in place under the shard
// lock; reg and the map's membership change under regMu as well, which is
// all a registration reader holds.
type object struct {
	// The sighting, while mem is memSighting.
	pos     geo.Point
	sensAcc float64
	t       int64
	expires int64

	reg *objectReg // the registration, nil when the object has none
	// acc is the registration's OfferedAcc, AccUnknown without one: the
	// accuracy of the index entry (see "Covering index entries").
	acc float64
	mem memState
}

// memState is what the memtable holds for an object: nothing, its sighting
// (indexed in the quadtree too), or a tombstone over the runs' versions.
type memState uint8

const (
	memNone memState = iota
	memSighting
	memTomb
)

// objectReg is an object's registration as its shard keeps it, OfferedAcc
// aside (object.acc).
type objectReg struct {
	info  core.RegInfo
	pathT int64
}

// sighting rebuilds the object's memtable sighting.
func (o *object) sighting(id core.OID) core.Sighting {
	return core.Sighting{OID: id, T: unixTime(o.t), Pos: o.pos, SensAcc: o.sensAcc}
}

// registration rebuilds the object's registration; o.reg must be set.
func (o *object) registration() Registration {
	return Registration{RegInfo: o.reg.info, OfferedAcc: o.acc, PathT: unixTime(o.reg.pathT)}
}

// item builds the spatial index item of id's object.
func (o *object) item(id core.OID) spatial.Item {
	return spatial.Item{ID: id, Pos: o.pos, Ref: o, Acc: o.acc}
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
// object. Caller holds the lock guarding the shard's index.
func (k hitSink) item(it *spatial.Item) bool {
	if k.entry != nil {
		return k.entry(it.ID, it.Pos, it.Acc)
	}
	return k.rec(it.Ref.(*object).sighting(it.ID))
}

// cold delivers a run-resident hit with its registration's accuracy.
func (k hitSink) cold(s core.Sighting, acc float64) bool {
	if k.entry != nil {
		return k.entry(s.OID, s.Pos, acc)
	}
	return k.rec(s)
}

// indexScan is the visitor state of one rectangle search, pooled with its
// visitor closures bound once so that a search allocates nothing: sink is
// where the hits go, stopped whether the consumer ended the search.
type indexScan struct {
	sink    hitSink
	stopped bool

	item func(it *spatial.Item) bool
	cold func(s core.Sighting, acc float64) bool
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
	sc.cold = func(s core.Sighting, acc float64) bool {
		if sc.sink.cold(s, acc) {
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
	sc.sink, sc.stopped = hitSink{}, false
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
// p, handing visit each neighbor with its object (n.Ref) and accuracy
// (n.Acc) read off the cursor's item. Caller holds the lock guarding idx
// for the whole walk.
func streamNearest(idx *spatial.Quadtree, p geo.Point, visit func(n spatial.Neighbor, locked bool) bool) {
	c := idx.NearestCursor(p)
	defer c.Close()
	for {
		n, ok := c.Next()
		if !ok || !visit(n, true) {
			return
		}
	}
}
