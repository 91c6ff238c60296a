package spatial

import (
	"locsvc/internal/geo"
)

// RectIndex is an MX-CIF-style quadtree over axis-aligned rectangles keyed
// by string ids: every rectangle is stored at the smallest tree node whose
// region fully contains it, so a point-stabbing query visits only the nodes
// on the single root-to-leaf path containing the point — O(depth + matches)
// instead of a scan over all rectangles. The event layer keeps subscription
// regions in one; a sighting delta then touches only the subscriptions
// whose areas contain its old or new position.
//
// Each node holds its rectangles in a slice of {id, rect}, so a stab reads
// contiguous memory; byID maps an id to its node and its position in that
// slice, and Remove swap-deletes, moving the node's last entry into the
// gap.
//
// Inserting an existing id replaces its rectangle. Rectangles need not lie
// inside the world rectangle: placement uses the world-clipped rectangle
// (a rectangle outside the world entirely sits at the root), while matching
// always tests the original rectangle, and a stab point outside the world
// falls back to scanning all entries — correct, just not sublinear, and
// impossible when stab points come from positions inside the world.
//
// Like the other indexes in this package, a RectIndex is not safe for
// concurrent use; the owning layer serializes access.
type RectIndex struct {
	world geo.Rect
	root  *rectNode
	byID  map[string]rectSlot
}

// rectSlot is where an id's rectangle lives: n.entries[i].
type rectSlot struct {
	n *rectNode
	i int
}

type rectEntry struct {
	id string
	r  geo.Rect
}

// rectMaxDepth bounds the tree height: at depth 24 a node's side is the
// world side / 2^24 — far below any meaningful subscription size.
const rectMaxDepth = 24

type rectNode struct {
	bounds  geo.Rect
	parent  *rectNode
	slot    int // index of this node in parent.kids
	entries []rectEntry
	kids    [4]*rectNode
	nkids   int
}

// NewRectIndex returns an empty index over the given world rectangle
// (typically the owning server's service area bounds).
func NewRectIndex(world geo.Rect) *RectIndex {
	return &RectIndex{
		world: world,
		root:  &rectNode{bounds: world},
		byID:  make(map[string]rectSlot),
	}
}

// Len returns the number of indexed rectangles.
func (ix *RectIndex) Len() int { return len(ix.byID) }

// quadrant returns child quadrant i of r (0: SW, 1: SE, 2: NW, 3: NE).
func quadrant(r geo.Rect, i int) geo.Rect {
	c := r.Center()
	switch i {
	case 0:
		return geo.Rect{Min: r.Min, Max: c}
	case 1:
		return geo.Rect{Min: geo.Point{X: c.X, Y: r.Min.Y}, Max: geo.Point{X: r.Max.X, Y: c.Y}}
	case 2:
		return geo.Rect{Min: geo.Point{X: r.Min.X, Y: c.Y}, Max: geo.Point{X: c.X, Y: r.Max.Y}}
	default:
		return geo.Rect{Min: c, Max: r.Max}
	}
}

// Insert adds (or replaces) the rectangle for id.
func (ix *RectIndex) Insert(id string, r geo.Rect) {
	if _, ok := ix.byID[id]; ok {
		ix.Remove(id)
	}
	place := r.Intersect(ix.world)
	n := ix.root
	if !place.Empty() {
		for depth := 0; depth < rectMaxDepth; depth++ {
			descended := false
			for i := 0; i < 4; i++ {
				q := quadrant(n.bounds, i)
				if q.ContainsRect(place) {
					if n.kids[i] == nil {
						n.kids[i] = &rectNode{bounds: q, parent: n, slot: i}
						n.nkids++
					}
					n = n.kids[i]
					descended = true
					break
				}
			}
			if !descended {
				break
			}
		}
	}
	ix.byID[id] = rectSlot{n, len(n.entries)}
	n.entries = append(n.entries, rectEntry{id, r})
}

// Remove deletes the rectangle for id, reporting whether it existed. Nodes
// left without entries and children are pruned so churn cannot grow the
// tree without bound.
func (ix *RectIndex) Remove(id string) bool {
	sl, ok := ix.byID[id]
	if !ok {
		return false
	}
	delete(ix.byID, id)
	n := sl.n
	last := len(n.entries) - 1
	if sl.i != last {
		moved := n.entries[last]
		n.entries[sl.i] = moved
		ix.byID[moved.id] = sl
	}
	n.entries[last] = rectEntry{} // drop the id string for the collector
	n.entries = n.entries[:last]
	for n != ix.root && len(n.entries) == 0 && n.nkids == 0 {
		p := n.parent
		p.kids[n.slot] = nil
		p.nkids--
		n = p
	}
	return true
}

// Stab visits every rectangle containing p (closed-boundary semantics,
// matching the store's SearchArea). Returning false from visit stops the
// enumeration.
func (ix *RectIndex) Stab(p geo.Point, visit func(id string, r geo.Rect) bool) {
	if !ix.world.ContainsClosed(p) {
		// Off-world point: placement clipping no longer guides the
		// descent, so check every entry.
		for _, sl := range ix.byID {
			if e := sl.n.entries[sl.i]; e.r.ContainsClosed(p) && !visit(e.id, e.r) {
				return
			}
		}
		return
	}
	ix.stab(ix.root, p, visit)
}

// stab recurses into every child whose region contains p: quadrants share
// their closed boundaries, so a point on a split line can have matching
// entries in more than one subtree.
func (ix *RectIndex) stab(n *rectNode, p geo.Point, visit func(id string, r geo.Rect) bool) bool {
	for i := range n.entries {
		if e := &n.entries[i]; e.r.ContainsClosed(p) && !visit(e.id, e.r) {
			return false
		}
	}
	for i := 0; i < 4; i++ {
		if k := n.kids[i]; k != nil && k.bounds.ContainsClosed(p) {
			if !ix.stab(k, p, visit) {
				return false
			}
		}
	}
	return true
}
