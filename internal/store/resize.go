package store

import (
	"fmt"

	"locsvc/internal/core"
	"locsvc/internal/spatial"
)

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
// exported through diagnostics and consumed by the AutoShard policy.
type ShardStat struct {
	// Len is the shard's record count.
	Len int
	// Ops is the cumulative number of write-path lock acquisitions.
	Ops int64
	// Contended is the subset of Ops that found the lock already held.
	Contended int64
}

// ShardStats returns a point-in-time snapshot of the current generation's
// shards. The counters are cumulative; callers interested in rates keep
// the previous snapshot and difference.
func (db *ShardedSightingDB) ShardStats() []ShardStat {
	g := db.gen.Load()
	out := make([]ShardStat, len(g.shards))
	for i, sh := range g.shards {
		sh.mu.RLock()
		out[i] = ShardStat{Len: len(sh.byID), Ops: sh.ops.Load(), Contended: sh.contended.Load()}
		sh.mu.RUnlock()
	}
	return out
}

// Resize changes the shard count to n while the store keeps serving — the
// live half of the adaptive-shard design (the deciding half is AutoShard).
// It is the multi-layer migration protocol behind the epoch invariant
// documented on ShardedSightingDB:
//
//  1. A new generation of n empty shards is published with its epoch
//     incremented and prev pointing at the old generation. From this
//     moment every operation resolves authority per object: the old shard
//     until its handoff, the new shard after.
//  2. The old shards are drained one at a time. The handoff holds exactly
//     one old shard's write lock while it moves that shard's (id, entry)
//     pairs into the destination shards, so no query or update is ever
//     blocked longer than one shard's handoff.
//  3. Each destination's quadtree is rebuilt through the bulk-load path
//     (Quadtree.Rebuild) once the walk completes — migration inserts
//     arrive in hash order, the incremental-insertion worst case.
//  4. A final generation without the prev pointer is published; queries
//     stop consulting the drained generation.
//  5. With a WAL attached, every segment is re-cut under the new mapping:
//     one epoch-stamped snapshot segment per new shard. The shard's lock
//     only quiesces its objects for the routing flip and the in-memory
//     snapshot (asynchronous mode; the segment write and fsync run off the
//     lock), then the old epoch's files are retired. A crash anywhere in
//     this phase recovers through OpenShardedWAL's cross-epoch fold.
//
// Concurrent Resize calls serialize; resizing to the current count is a
// no-op. A negative count is an error; zero means one shard. A non-nil
// error from the WAL phase reports that the log could not follow — the
// in-memory resize stands, but logging has stopped (WALErr is sticky).
func (db *ShardedSightingDB) Resize(n int) error {
	n, err := NormalizeShards(n)
	if err != nil {
		return err
	}
	if db.tier != nil && len(db.gen.Load().shards) != n {
		// Run files and manifests are per-shard and do not migrate; the
		// shard count is pinned for the lifetime of a tiered store.
		return fmt.Errorf("store: Resize is unsupported while tiered storage is enabled (per-shard run files pin the shard count)")
	}
	db.resizeMu.Lock()
	defer db.resizeMu.Unlock()
	old := db.gen.Load()
	if len(old.shards) == n {
		return nil
	}

	next := &shardGen{
		epoch:  old.epoch + 1,
		shards: make([]*sightingShard, n),
		prev:   old,
	}
	for i := range next.shards {
		next.shards[i] = newShard()
	}
	db.gen.Store(next)

	// Drain the old generation, one shard handoff at a time.
	for _, sh := range old.shards {
		db.handoffShard(sh, next)
	}

	// Build every destination's quadtree with one bulk load. The handoff
	// deferred all tree work to this pass — moved entries were
	// query-visible through the draining generation's preserved trees
	// meanwhile — which keeps each handoff's lock hold down to the map
	// moves, so no query ever stalls for more than one shard's map handoff
	// (or one rebuild here). The balanced bulk build also makes the
	// steady-state tree shape independent of migration order.
	for _, dst := range next.shards {
		dst.mu.Lock()
		dst.rebuildIndexLocked()
		dst.mu.Unlock()
	}

	// Migration complete: publish the generation without its prev pointer
	// so queries stop scanning the drained shards.
	db.gen.Store(&shardGen{epoch: next.epoch, shards: next.shards})

	// Re-cut the persistent log under the new mapping. A WAL failure here
	// does not undo the resize — the in-memory store is authoritative and
	// stays resized — but it is reported (and sticky through WALErr):
	// logging has stopped and durability is gone until the operator
	// intervenes. In the default asynchronous mode each shard's routing
	// flips and its live set is snapshotted under the shard lock, while
	// the snapshot segment's marshal, write and fsync happen after the
	// lock is released (BeginSwitchShard/FinishSwitchShard) — the stall
	// bound stays the map work, not the disk. The synchronous mode keeps
	// the disk work under the lock, matching its fsync-per-append
	// semantics.
	if db.wal != nil && db.wal.Err() == nil {
		if err := db.wal.StartEpoch(n); err != nil {
			return fmt.Errorf("store: resized to %d shards, but the WAL epoch switch failed (logging stopped): %w", n, err)
		}
		async := db.wal.Asynchronous()
		for j, sh := range next.shards {
			var live []core.Sighting
			var err error
			sh.mu.Lock()
			if async {
				err = db.wal.BeginSwitchShard(j)
			}
			if err == nil {
				live = sh.liveSnapshot()
				if !async {
					err = db.wal.SwitchShard(j, live)
				}
			}
			sh.mu.Unlock()
			if err == nil && async {
				err = db.wal.FinishSwitchShard(j, live)
			}
			if err != nil {
				return fmt.Errorf("store: resized to %d shards, but re-cutting WAL shard %d failed (logging stopped): %w", n, j, err)
			}
		}
		db.wal.FinishEpoch()
	}
	return nil
}

// handoffShard moves one old shard's entries into the new generation. The
// old shard's write lock is held for the whole handoff — that lock is what
// makes the transfer atomic for the ids involved: every mutation of those
// ids either completed before the handoff (and is moved with the entry) or
// blocks on this lock and re-routes to the new generation when it observes
// the moved flag.
func (db *ShardedSightingDB) handoffShard(sh *sightingShard, next *shardGen) {
	sh.lockWrite()
	defer sh.mu.Unlock()
	if sh.moved {
		return
	}
	n := len(next.shards)
	// Group entries by destination so each destination lock is taken once
	// per source shard.
	groups := make(map[int][]*sightingEntry, n)
	for id, e := range sh.byID {
		j := spatial.ShardFor(id, n)
		groups[j] = append(groups[j], e)
	}
	for j, entries := range groups {
		dst := next.shards[j]
		// All tree insertion is deferred to the final bulk Rebuild: until
		// then the moved entries stay query-visible through this
		// (preserved) source tree, and skipping per-entry tree work here is
		// what keeps the handoff's lock hold — the longest stall any
		// concurrent operation can see — proportional to the map moves
		// alone.
		dst.mu.Lock()
		for _, e := range entries {
			dst.byID[e.s.OID] = e
			dst.noteInsert(e.s.Pos)
		}
		dst.mu.Unlock()
	}
	// Mark the handoff but keep the drained content in place: the maps and
	// the tree are immutable from here on (every mutation re-routes on the
	// moved flag), so a query that loaded this generation before the
	// resize published the new one still scans a valid point-in-time
	// snapshot — each entry it yields was live during that query. The
	// memory is reclaimed when the last such reader drops the generation.
	sh.moved = true
}
