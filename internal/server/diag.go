package server

import (
	"fmt"

	"locsvc/internal/msg"
)

// shardMaintenance runs once per janitor tick on a leaf: it exports
// per-shard occupancy and contention through the metrics registry.
func (s *Server) shardMaintenance() {
	sdb := s.sightings
	stats := sdb.ShardStats()
	for i, st := range stats {
		s.met.Gauge(shardGaugeName("sighting_shard_occupancy", i)).Set(int64(st.Len))
		s.met.Gauge(shardGaugeName("sighting_shard_contended", i)).Set(st.Contended)
	}
	s.met.Gauge("sighting_shards").Set(int64(len(stats)))

	// Tiering observability: memtable pressure, run inventory and the
	// flush/compaction cadence, refreshed once per tick like the shard
	// gauges above.
	if ts := sdb.TierStats(); ts.Enabled {
		s.met.Gauge("sighting_memtable_bytes").Set(ts.MemtableBytes)
		s.met.Gauge("sighting_runs").Set(int64(ts.Runs))
		s.met.Gauge("sighting_run_bytes").Set(ts.RunBytes)
		s.met.Gauge("sighting_disk_live").Set(ts.DiskLive)
		s.met.Gauge("sighting_compaction_backlog").Set(int64(ts.Backlog))
		s.met.Gauge("sighting_flushes").Set(ts.Flushes)
		s.met.Gauge("sighting_compactions").Set(ts.Compactions)
		s.met.Gauge("sighting_bloom_hits").Set(ts.BloomHits)
		s.met.Gauge("sighting_bloom_misses").Set(ts.BloomMisses)
		// Run leaves whose resident positions range and nearest-neighbor
		// queries tested; no disk read stands behind them.
		s.met.Gauge("sighting_tier_leaves_scanned").Set(ts.LeavesScanned)
		// Non-zero means a run's records are damaged and point lookups or
		// scans are missing what it held.
		s.met.Gauge("sighting_tier_read_errors").Set(ts.ReadErrors)
	}
}

// shardGaugeName formats one shard's gauge series name.
func shardGaugeName(prefix string, shard int) string {
	return fmt.Sprintf("%s.%03d", prefix, shard)
}

// handleDiag answers a diagnostics request with the server's store
// occupancy, sighting-shard layout and metrics snapshot.
func (s *Server) handleDiag() (msg.Message, error) {
	res := msg.DiagRes{
		Server:   s.ID(),
		IsLeaf:   s.cfg.IsLeaf(),
		Visitors: s.VisitorCount(),
		Metrics:  s.met.Snapshot(),
	}
	if sdb := s.sightings; sdb != nil {
		res.Sightings = sdb.Len()
		for _, st := range sdb.ShardStats() {
			res.Shards = append(res.Shards, msg.ShardDiag{Len: st.Len, Ops: st.Ops, Contended: st.Contended})
		}
		if ts := sdb.TierStats(); ts.Enabled {
			res.Tier = &msg.TierDiag{
				Warm:          ts.Warm,
				MemtableBytes: ts.MemtableBytes,
				Runs:          ts.Runs,
				RunBytes:      ts.RunBytes,
				MetaBytes:     ts.MetaBytes,
				DiskRecords:   ts.DiskRecords,
				DiskLive:      ts.DiskLive,
				Flushes:       ts.Flushes,
				Compactions:   ts.Compactions,
				BloomHits:     ts.BloomHits,
				BloomMisses:   ts.BloomMisses,
				Backlog:       ts.Backlog,
			}
		}
	}
	if s.pipe != nil {
		res.PipelineOps, res.PipelineHandoffs = s.pipe.Stats()
	}
	s.events.mu.Lock()
	res.EventSubs = len(s.events.local)
	res.EventCoordSubs = len(s.events.coord)
	s.events.mu.Unlock()
	return res, nil
}
