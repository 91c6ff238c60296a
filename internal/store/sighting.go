package store

import (
	"math"
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
// full spec. The tier activates when Recover opens it; Recover refuses a
// tiered store without a sighting WAL.
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

	// What the run tables (tierRun.objs) need to judge a cold hit without
	// the id: dead marks an object deleted from its shard's map; seq, while
	// seqKnown, is the sequence of the newest run a flush wrote the object
	// into (or a compaction, for an object no flush of this process had).
	// Together they fit the padding of the 64-byte size class.
	dead     bool
	seqKnown bool
	seq      uint32
}

// setSeq records that run seq holds o's newest version; a sequence beyond
// uint32 leaves o unknown rather than wrap.
func (o *object) setSeq(seq uint64) {
	o.seq, o.seqKnown = uint32(seq), seq <= math.MaxUint32
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
