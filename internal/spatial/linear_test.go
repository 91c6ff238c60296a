package spatial

import (
	"sort"
	"sync"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// Linear is a brute-force Index, the correctness reference the quadtree
// (and the partitioned merge stand-in) is checked against. Insert and
// Remove are O(1); Search and NearestFunc scan all entries.
type Linear struct {
	items map[core.OID][]geo.Point
	size  int
}

var _ Index = (*Linear)(nil)

// NewLinear returns an empty linear index.
func NewLinear() *Linear {
	return &Linear{items: make(map[core.OID][]geo.Point)}
}

// Len implements Index.
func (l *Linear) Len() int { return l.size }

// Insert implements Index.
func (l *Linear) Insert(id core.OID, p geo.Point) {
	l.items[id] = append(l.items[id], p)
	l.size++
}

// Remove implements Index.
func (l *Linear) Remove(id core.OID, p geo.Point) bool {
	ps := l.items[id]
	for i, q := range ps {
		if q == p {
			ps[i] = ps[len(ps)-1]
			ps = ps[:len(ps)-1]
			if len(ps) == 0 {
				delete(l.items, id)
			} else {
				l.items[id] = ps
			}
			l.size--
			return true
		}
	}
	return false
}

// Search implements Index.
func (l *Linear) Search(r geo.Rect, visit func(id core.OID, p geo.Point) bool) {
	for id, ps := range l.items {
		for _, p := range ps {
			if r.ContainsClosed(p) && !visit(id, p) {
				return
			}
		}
	}
}

// linearCursor is the linear scan's nearest-neighbor cursor: a sorted
// snapshot buffer, advanced one entry per Next. The snapshot is taken at
// creation, so a cursor resumed across modifications simply replays the
// state it saw — trivially monotone.
type linearCursor struct {
	buf    []Neighbor
	pos    int
	closed bool
}

var linearCursorPool = sync.Pool{New: func() any { return new(linearCursor) }}

// NearestCursor implements Index by snapshotting all entries sorted by
// distance from p.
func (l *Linear) NearestCursor(p geo.Point) Cursor {
	c := linearCursorPool.Get().(*linearCursor)
	c.pos = 0
	c.closed = false
	c.buf = c.buf[:0]
	for id, ps := range l.items {
		for _, q := range ps {
			c.buf = append(c.buf, Neighbor{ID: id, Pos: q, Dist: q.Dist(p)})
		}
	}
	sort.Slice(c.buf, func(i, j int) bool { return c.buf[i].Dist < c.buf[j].Dist })
	return c
}

// Next implements Cursor.
func (c *linearCursor) Next() (Neighbor, bool) {
	if c.pos >= len(c.buf) {
		return Neighbor{}, false
	}
	n := c.buf[c.pos]
	c.pos++
	return n, true
}

// Close implements Cursor, returning the snapshot buffer to a pool.
func (c *linearCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	clear(c.buf)
	c.buf = c.buf[:0]
	linearCursorPool.Put(c)
}

// NearestFunc implements Index by draining a sorted-snapshot cursor.
func (l *Linear) NearestFunc(p geo.Point, visit func(id core.OID, q geo.Point, dist float64) bool) {
	c := l.NearestCursor(p)
	defer c.Close()
	for {
		n, ok := c.Next()
		if !ok || !visit(n.ID, n.Pos, n.Dist) {
			return
		}
	}
}

// SearchAll collects every entry inside r.
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
