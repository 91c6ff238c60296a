package spatial

import (
	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// Neighbor is one entry of a nearest-neighbor stream: an indexed object
// together with its distance from the query point. Ref and Acc are the
// entry's Item payload where the index carries one (see Item); cursors over
// id-keyed entries leave Ref nil, and Acc means nothing without Ref.
type Neighbor struct {
	ID   core.OID
	Pos  geo.Point
	Dist float64
	Ref  any
	Acc  float64
}

// NearestFetch returns up to k entries nearest to a fixed query point,
// nearest first. It is kept for callers that want a batch interface; the
// streaming paths use Cursor directly, which avoids re-traversing the
// prefix when a consumer needs to look deeper.
type NearestFetch func(k int) []Neighbor

// FetchFromIndex adapts an Index to a NearestFetch around p: each call
// opens a fresh cursor and drains its first k neighbors. The returned fetch
// is only as concurrency-safe as the index it wraps.
func FetchFromIndex(ix Index, p geo.Point) NearestFetch {
	return func(k int) []Neighbor {
		if k <= 0 {
			return nil
		}
		c := ix.NearestCursor(p)
		defer c.Close()
		out := make([]Neighbor, 0, k)
		for len(out) < k {
			n, ok := c.Next()
			if !ok {
				break
			}
			out = append(out, n)
		}
		return out
	}
}

// MergeNearest visits the union of several distance-ordered cursors in
// global order of increasing distance — the k-way merge behind sharded
// nearest-neighbor queries. Each cursor is advanced exactly one neighbor at
// a time, so stopping after k results costs k advances plus one buffered
// head per cursor. Returning false from visit stops the enumeration;
// ordering between equidistant entries is unspecified. The caller retains
// ownership of the cursors and closes them.
func MergeNearest(cursors []Cursor, visit func(n Neighbor) bool) {
	var h heapOf[mref]
	for _, c := range cursors {
		if n, ok := c.Next(); ok {
			h.push(n.Dist, mref{cur: c, head: n})
		}
	}
	for h.len() > 0 {
		top := h.es[0]
		if !visit(top.val.head) {
			return
		}
		if n, ok := top.val.cur.Next(); ok {
			h.replaceTop(n.Dist, mref{cur: top.val.cur, head: n})
		} else {
			h.pop()
		}
	}
}
