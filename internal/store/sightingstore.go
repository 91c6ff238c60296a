package store

import (
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// AccUnknown is the accuracy of an index entry whose object has no
// registration: entries put by store-level callers that register nothing,
// and positions recovered from a sighting WAL without a registration log.
// See "Covering index entries" in the package comment.
const AccUnknown = spatial.AccUnknown

// SightingStore is the part of the sighting database that UpdatePipeline
// and the benchmark rig call through an interface: UpdatePipeline calls
// NumShards and PutBatch, and the rig's replay the three reads.
// ShardedSightingDB — N independently locked shards keyed by object id, one
// by default, with a batch API that applies a group of updates per shard
// under one lock acquisition — is the only implementation outside tests,
// which substitute a fake through it (pipeline_test.go); everything else
// about the store — the registrations, the removes and expiry included — is
// a method of the concrete type.
//
// Implementations are safe for concurrent use. Queries observe a
// consistent snapshot per shard; cross-shard queries are linearizable only
// when the store is quiescent, which matches the service semantics (a range
// query racing an update may see either position — exactly as it may over
// the network).
type SightingStore interface {
	// NumShards returns the number of independently locked shards.
	NumShards() int
	// PutBatch is the general batch put. Each entry's index accuracy comes
	// from the store's own registration records, never from the caller. With
	// a non-nil out — pass an empty non-nil slice to ask, nil to skip — one
	// Delta per committed change is appended to out and the extended slice
	// returned. Superseded updates within the batch are coalesced: an
	// object put several times yields one delta, spanning the pre-batch
	// position and the final one; deltas for the same object are always in
	// commit order.
	PutBatch(batch []core.Sighting, out []Delta) []Delta
	// Get returns the record for id via the hash index.
	Get(id core.OID) (core.Sighting, bool)
	// SearchArea visits every sighting inside the closed rectangle r.
	SearchArea(r geo.Rect, visit func(s core.Sighting) bool)
	// NearestFunc visits sightings in order of increasing distance from p.
	NearestFunc(p geo.Point, visit func(s core.Sighting, dist float64) bool)
}
