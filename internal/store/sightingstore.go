package store

import (
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/spatial"
)

// AccUnknown is the accuracy of an index entry that records none: entries
// put without one (Put, PutBatch, PutBatchAcc with nil accs), replayed from
// a WAL, installed by replication or read from a disk run. See "Covering
// index entries" in the package comment.
const AccUnknown = spatial.AccUnknown

// SightingStore is the sighting-database interface UpdatePipeline and the
// benchmark rig program against. ShardedSightingDB — N independently locked
// shards keyed by object id, one by default, with a batch API that applies
// a group of updates per shard under one lock acquisition — is the only
// implementation outside tests, which substitute a fake through it
// (pipeline_test.go).
//
// Implementations are safe for concurrent use. Queries observe a
// consistent snapshot per shard; cross-shard queries are linearizable only
// when the store is quiescent, which matches the service semantics (a range
// query racing an update may see either position — exactly as it may over
// the network).
type SightingStore interface {
	// Len returns the number of stored sighting records.
	Len() int
	// NumShards returns the number of independently locked shards.
	NumShards() int
	// ShardFor maps an object id to its shard, for callers that batch
	// work per shard (UpdatePipeline).
	ShardFor(id core.OID) int
	// Put inserts or replaces the record for s.OID and refreshes its
	// expiration date.
	Put(s core.Sighting)
	// PutBatch applies a batch of puts, acquiring each involved shard's
	// lock once. Later entries for the same object override earlier ones.
	PutBatch(batch []core.Sighting)
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
	// SetAcc replaces the accuracy recorded on id's index entry, leaving
	// the sighting and its expiration date alone. It reports false when
	// the memtable holds no entry for id — there is then nothing to keep
	// current.
	SetAcc(id core.OID, acc float64) bool
	// Get returns the record for id via the hash index.
	Get(id core.OID) (core.Sighting, bool)
	// Remove deletes the record for id and reports whether it existed.
	Remove(id core.OID) bool
	// RemoveDelta is Remove with change reporting: the returned delta
	// carries the removed record's last position.
	RemoveDelta(id core.OID) (Delta, bool)
	// RemoveExpiredDelta deletes the record for id only if its TTL has
	// passed, so callers acting on a stale expiry observation (the
	// janitor's Expired snapshot, the pipeline's amortized sweep) cannot
	// tear down a concurrently refreshed record. The returned delta
	// carries the removed record's last position.
	RemoveExpiredDelta(id core.OID) (Delta, bool)
	// Touch refreshes the expiration date of id.
	Touch(id core.OID) bool
	// Expired returns the ids of all records whose soft-state TTL passed.
	Expired() []core.OID
	// SweepExpired examines at most max records (resuming where the last
	// sweep stopped) and returns the expired ids among them.
	SweepExpired(max int) []core.OID
	// SearchArea visits every sighting inside the closed rectangle r.
	SearchArea(r geo.Rect, visit func(s core.Sighting) bool)
	// SearchEntries is SearchArea at index-entry level: visit receives the
	// id, the position and the recorded accuracy (AccUnknown when none)
	// of every match without the record behind the entry being read.
	SearchEntries(r geo.Rect, visit func(id core.OID, pos geo.Point, acc float64) bool)
	// NearestFunc visits sightings in order of increasing distance from p.
	NearestFunc(p geo.Point, visit func(s core.Sighting, dist float64) bool)
	// NearestEntries is NearestFunc at index-entry level, like
	// SearchEntries.
	NearestEntries(p geo.Point, visit func(id core.OID, pos geo.Point, acc, dist float64) bool)
	// ForEach visits every stored sighting in unspecified order.
	ForEach(visit func(s core.Sighting) bool)
}
