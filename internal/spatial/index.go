// Package spatial provides the point indexes used by a location server's
// main-memory sighting database (paper Section 5): a Point Quadtree (the
// index the paper's prototype uses, after Samet [17]), an R-tree (the
// alternative the paper cites, after Guttman [6]) and a linear scan used as
// a correctness reference and ablation baseline.
//
// All indexes store (object id, position) pairs, answer rectangle searches
// for range queries and stream neighbors in increasing distance order for
// nearest-neighbor queries. Nearest-neighbor enumeration is exposed two
// ways: push-style (NearestFunc) and as a resumable pull-style Cursor
// (NearestCursor) whose best-first traversal pauses between neighbors — the
// building block that lets the sharded store merge per-shard streams
// without re-traversing each shard's prefix (see Cursor for the contract).
//
// The indexes themselves are single-threaded. The concurrent wrapper,
// store.ShardedSightingDB, keeps one index per shard (ShardFor picks it)
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

// Item is one indexed object. Ref is an optional opaque payload carried
// alongside the entry by indexes that implement ItemIndex: a store can
// stash its record pointer there and get it back from a search or a
// nearest-neighbor cursor, sparing a hash-map lookup per match on the hot
// read path. Acc rides along the same way: the object's offered accuracy,
// so that a query can build the location descriptor (Pos, Acc) from the
// index entry alone — the index covers range and nearest-neighbor
// qualification. Indexes never inspect Ref or Acc. Whoever sets Ref owns
// the meaning of Acc and must set it explicitly: the zero value means
// "perfectly accurate", AccUnknown means "not recorded here".
type Item struct {
	ID  core.OID
	Pos geo.Point
	Ref any
	Acc float64
}

// AccUnknown is the Item.Acc of an entry whose offered accuracy is not
// recorded on the entry. Real accuracies are never negative.
const AccUnknown = -1

// Index is the interface shared by all spatial index implementations.
// Implementations are not safe for concurrent use; the owning store
// serializes access (see internal/store).
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

// ItemIndex is an optional capability an Index may implement: inserting
// whole Items (including the opaque Ref payload) and searching with the
// stored Item handed back to the visitor. Entries inserted through either
// Insert or InsertItem are removed through the same Remove — the payload
// plays no part in matching. The stores type-assert for this capability and
// fall back to the id-keyed API, so it stays invisible to plain callers.
type ItemIndex interface {
	Index
	// InsertItem adds it, carrying its Ref payload alongside the entry.
	InsertItem(it Item)
	// SearchItems is Search handing back the stored Item per match. The
	// pointer aims into the index: it is valid, and the Item must stay
	// unmodified, for the duration of the visit call only.
	SearchItems(r geo.Rect, visit func(it *Item) bool)
}

// Kind selects an index implementation by name; it is used by server
// configuration and the index ablation benchmarks.
type Kind int

// Supported index kinds.
const (
	KindQuadtree Kind = iota + 1
	KindRTree
	KindLinear
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindQuadtree:
		return "quadtree"
	case KindRTree:
		return "rtree"
	case KindLinear:
		return "linear"
	default:
		return "unknown"
	}
}

// New constructs an index of the given kind. Unknown kinds fall back to the
// quadtree, the paper's default.
func New(k Kind) Index {
	switch k {
	case KindRTree:
		return NewRTree()
	case KindLinear:
		return NewLinear()
	default:
		return NewQuadtree()
	}
}

// SearchAll collects every entry inside r. It is a convenience wrapper
// around Search for callers that want a slice.
func SearchAll(ix Index, r geo.Rect) []Item {
	var out []Item
	ix.Search(r, func(id core.OID, p geo.Point) bool {
		out = append(out, Item{ID: id, Pos: p})
		return true
	})
	return out
}

// KNearest returns up to k entries closest to p, nearest first. It pulls
// exactly k neighbors off a cursor, so no implementation over-fetches.
func KNearest(ix Index, p geo.Point, k int) []Item {
	if k <= 0 {
		return nil
	}
	c := ix.NearestCursor(p)
	defer c.Close()
	out := make([]Item, 0, k)
	for len(out) < k {
		n, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, Item{ID: n.ID, Pos: n.Pos})
	}
	return out
}
