package store

import (
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// AccUnknown is the accuracy of an index entry that records none: entries
// put without one (Put, PutBatchAcc with nil accs), replayed from a WAL,
// installed by replication or read from a disk run. See "Covering index
// entries" in the package comment.
const AccUnknown = spatial.AccUnknown

// SightingStore is the part of the sighting database that UpdatePipeline
// and the benchmark rig call through an interface: UpdatePipeline calls
// NumShards and PutBatchAcc, and the rig's replay the three reads.
// ShardedSightingDB — N independently locked shards keyed by object id, one
// by default, with a batch API that applies a group of updates per shard
// under one lock acquisition — is the only implementation outside tests,
// which substitute a fake through it (pipeline_test.go); everything else
// about the store, the removes and expiry included, is a method of the
// concrete type.
//
// Implementations are safe for concurrent use. Queries observe a
// consistent snapshot per shard; cross-shard queries are linearizable only
// when the store is quiescent, which matches the service semantics (a range
// query racing an update may see either position — exactly as it may over
// the network).
type SightingStore interface {
	// NumShards returns the number of independently locked shards.
	NumShards() int
	// PutBatchAcc is the general batch put. With a non-nil accs (one per
	// batch entry) it records accs[i] as batch[i]'s object's offered
	// accuracy on the index entry; the accuracy is logged and replicated
	// nowhere, and the caller keeps it current (SetAcc). With a non-nil out
	// — pass an empty non-nil slice to ask, nil to skip — one Delta per
	// committed change is appended to out and the extended slice returned.
	// Superseded updates within the batch are coalesced: an object put
	// several times yields one delta, spanning the pre-batch position and
	// the final one; deltas for the same object are always in commit order.
	PutBatchAcc(batch []core.Sighting, accs []float64, out []Delta) []Delta
	// Get returns the record for id via the hash index.
	Get(id core.OID) (core.Sighting, bool)
	// SearchArea visits every sighting inside the closed rectangle r.
	SearchArea(r geo.Rect, visit func(s core.Sighting) bool)
	// NearestFunc visits sightings in order of increasing distance from p.
	NearestFunc(p geo.Point, visit func(s core.Sighting, dist float64) bool)
}
