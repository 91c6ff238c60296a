// Package spatial provides the point index of a location server's
// main-memory sighting database (paper Section 5): a bucketed Point
// Quadtree, the index the paper's prototype uses (after Samet [17]), plus
// the MX-CIF rectangle index the event layer keeps subscription areas in
// (RectIndex).
//
// The quadtree stores (object id, position) entries, each optionally
// carrying an opaque record payload and an accuracy (Item), answers
// rectangle searches for range queries and streams neighbors in increasing
// distance order for nearest-neighbor queries. Nearest-neighbor enumeration
// is exposed two ways: push-style (NearestFunc) and as a resumable
// pull-style Cursor (NearestCursor) whose best-first traversal pauses
// between neighbors — the building block that lets the sharded store merge
// per-shard streams without re-traversing each shard's prefix (see Cursor
// for the contract).
//
// The tree itself is single-threaded. The concurrent wrapper,
// store.ShardedSightingDB, keeps one quadtree per shard (ShardFor picks it)
// and a conservative bounding rectangle over each shard's live entries: it
// always contains every live position (inserts grow it immediately;
// removals only mark it stale and it is recomputed once stale removals
// outnumber live entries), so skipping a shard whose rectangle misses a
// query rectangle, or ordering unopened shard streams by the rectangle's
// minimum distance (CursorSource.MinDist), can never change a query result.
package spatial

import (
	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// Item is one indexed object. Ref is an opaque payload carried alongside
// the entry: a store stashes its record pointer there and gets it back from
// a search (SearchItems) or a nearest-neighbor cursor (Neighbor.Ref),
// sparing a hash-map lookup per match on the hot read path. Acc rides along
// the same way: the object's offered accuracy, so that a query can build
// the location descriptor (Pos, Acc) from the index entry alone — the index
// covers range and nearest-neighbor qualification. The index never
// inspects Ref or Acc. Whoever sets Ref owns the meaning of Acc and must
// set it explicitly: the zero value means "perfectly accurate", AccUnknown
// means "not recorded here".
type Item struct {
	ID  core.OID
	Pos geo.Point
	Ref any
	Acc float64
}

// AccUnknown is the Item.Acc of an entry whose offered accuracy is not
// recorded on the entry. Real accuracies are never negative.
const AccUnknown = -1

// Index is the id-keyed point-index interface the Quadtree implements. It
// lets the package's tests substitute a brute-force reference and a
// partitioned merge stand-in for the tree, and it is what New hands the
// benchmark's spatial replay. Implementations are not safe for concurrent
// use; the owning store serializes access (see internal/store).
type Index interface {
	// Insert adds an object at position p. Inserting an id twice without
	// removing it first leaves two entries; callers are expected to
	// Remove before re-inserting (the store's update path does).
	Insert(id core.OID, p geo.Point)
	// Remove deletes the entry for id at position p, which must be the
	// position it was inserted with. It reports whether an entry was
	// removed.
	Remove(id core.OID, p geo.Point) bool
	// Len returns the number of indexed entries.
	Len() int
	// Search visits every entry whose position lies in the closed
	// rectangle r. Returning false from visit stops the search early.
	Search(r geo.Rect, visit func(id core.OID, p geo.Point) bool)
	// NearestFunc visits entries in order of increasing distance from p.
	// Returning false from visit stops the enumeration. Ordering between
	// equidistant entries is unspecified.
	NearestFunc(p geo.Point, visit func(id core.OID, q geo.Point, dist float64) bool)
	// NearestCursor returns a paused nearest-neighbor enumeration around
	// p that yields the same stream as NearestFunc one neighbor per Next
	// call; see Cursor for the full contract.
	NearestCursor(p geo.Point) Cursor
}

// Kind names an index implementation.
//
// Deprecated: the quadtree is the only index. Kind, KindQuadtree and New
// survive only for the benchmark's spatial replay (bench/rig/replay.go).
type Kind int

// KindQuadtree names the point quadtree.
//
// Deprecated: see Kind.
const KindQuadtree Kind = 1

// New returns an empty point quadtree, whatever the kind.
//
// Deprecated: use NewQuadtree. See Kind.
func New(Kind) Index { return NewQuadtree() }
