package spatial

import (
	"sort"
	"sync"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// qBucket is the leaf capacity of the bucketed point quadtree: a leaf
// absorbs up to this many entries before it splits. Buckets keep the tree
// shallow — depth is O(log4(n/qBucket)) instead of O(log4 n) — which is the
// multiplier a sharded store pays on every query probe, and a bucket scan
// is a branch-free sweep over contiguous items, far cheaper per entry than
// a pointer-chasing descent. A leaf whose entries all share one position
// cannot be split and simply stays oversized, which keeps duplicate-heavy
// workloads correct.
const qBucket = 16

// Quadtree is a Point Quadtree after Samet [17], the spatial index the
// paper's prototype uses for its sightingDB, refined with leaf buckets:
// internal nodes store one distinct dividing position (plus all object ids
// sighted exactly there) and split the plane into four quadrants at that
// position, while leaves hold a small bucket of entries until they are
// worth dividing.
//
// Deletion is O(depth): removing a bucket entry edits the bucket in place,
// and removing a dividing position's last id leaves the divider behind as a
// position-only tombstone ("ghost") that no longer reports anything. Ghosts
// are swept by rebuilding the tree balanced once they outnumber a quarter
// of the live entries — amortized O(log n) per removal, and the rebuild is
// also where ghost nodes and stale rectangles disappear.
//
// Every node caches the bounding rectangle of its subtree's actual
// positions (sub), maintained with the same lazily-tightened invariant as
// the shard rectangles: inserts grow the rectangles along the descent path
// immediately, removals leave ancestors' rectangles conservatively large,
// and a subtree rebuild recomputes its rectangles exactly. Searches and the
// nearest-neighbor cursor prune on sub instead of the unbounded quadrant
// regions, which skips subtrees whose data lies nowhere near the query —
// the dominant cost once the database is split into per-shard trees.
type Quadtree struct {
	root *qnode
	size int
	// ghosts counts internal nodes whose dividing position holds no
	// resident entries anymore; the tree is rebuilt once they outnumber
	// size/4.
	ghosts int
}

var _ Index = (*Quadtree)(nil)

// NewQuadtree returns an empty point quadtree.
func NewQuadtree() *Quadtree { return &Quadtree{} }

type qnode struct {
	// sub conservatively bounds every position in this subtree. It grows
	// immediately on insert and is recomputed exactly on subtree rebuild;
	// between rebuilds removals may leave it larger than the live extent,
	// never smaller.
	sub geo.Rect
	// Internal nodes: pos is the dividing position, res the entries
	// resident exactly there, kids the four quadrants. Leaves: items is
	// the bucket; pos/res/kids are unused.
	pos   geo.Point
	res   []Item
	items []Item
	kids  [4]*qnode
	leaf  bool
}

func newLeaf(it Item) *qnode {
	n := &qnode{leaf: true, sub: geo.Rect{Min: it.Pos, Max: it.Pos}}
	n.items = append(n.items, it)
	return n
}

// growSub widens n.sub to cover p.
func (n *qnode) growSub(p geo.Point) { n.sub.GrowToInclude(p) }

// quadrant indexes: 0 = NE, 1 = NW, 2 = SW, 3 = SE relative to node point.
// Points on the dividing lines go east/north, making placement unique.
func quadrantOf(center, p geo.Point) int {
	if p.X >= center.X {
		if p.Y >= center.Y {
			return 0
		}
		return 3
	}
	if p.Y >= center.Y {
		return 1
	}
	return 2
}

// Len implements Index.
func (t *Quadtree) Len() int { return t.size }

// Insert implements Index: an entry without a payload.
func (t *Quadtree) Insert(id core.OID, p geo.Point) {
	t.InsertItem(Item{ID: id, Pos: p, Acc: AccUnknown})
}

// InsertItem adds it, carrying its Ref and Acc alongside the entry.
// Entries inserted through either Insert or InsertItem are removed through
// the same Remove — the payload plays no part in matching.
func (t *Quadtree) InsertItem(it Item) {
	t.size++
	if t.root == nil {
		t.root = newLeaf(it)
		return
	}
	n := t.root
	for {
		n.growSub(it.Pos)
		if n.leaf {
			n.items = append(n.items, it)
			if len(n.items) > qBucket {
				n.split()
			}
			return
		}
		if n.pos == it.Pos {
			if len(n.res) == 0 {
				t.ghosts-- // a ghost divider comes back to life
			}
			n.res = append(n.res, it)
			return
		}
		q := quadrantOf(n.pos, it.Pos)
		if n.kids[q] == nil {
			n.kids[q] = newLeaf(it)
			return
		}
		n = n.kids[q]
	}
}

// split turns an over-full leaf into an internal node: the bucket entry
// nearest the bucket centroid becomes the dividing position (a balanced
// pick on any distribution), entries sighted exactly there become the
// node's resident entries and the rest drop into fresh leaf kids. A bucket
// whose entries all share one position cannot be divided and stays an
// oversized leaf.
func (n *qnode) split() {
	var cx, cy float64
	for _, it := range n.items {
		cx += it.Pos.X
		cy += it.Pos.Y
	}
	c := geo.Pt(cx/float64(len(n.items)), cy/float64(len(n.items)))
	best, bestD := -1, 0.0
	distinct := false
	first := n.items[0].Pos
	for i, it := range n.items {
		if it.Pos != first {
			distinct = true
		}
		if d := it.Pos.Dist(c); best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	if !distinct {
		return
	}
	items := n.items
	n.leaf = false
	n.items = nil
	n.pos = items[best].Pos
	for _, it := range items {
		if it.Pos == n.pos {
			n.res = append(n.res, it)
			continue
		}
		q := quadrantOf(n.pos, it.Pos)
		if k := n.kids[q]; k != nil {
			k.growSub(it.Pos)
			k.items = append(k.items, it)
		} else {
			n.kids[q] = newLeaf(it)
		}
	}
}

// Remove implements Index.
func (t *Quadtree) Remove(id core.OID, p geo.Point) bool {
	n, parent, pq := t.root, (*qnode)(nil), -1
	for n != nil {
		if n.leaf {
			for i, it := range n.items {
				if it.ID == id && it.Pos == p {
					n.items = append(n.items[:i], n.items[i+1:]...)
					t.size--
					if len(n.items) == 0 {
						if parent == nil {
							t.root = nil
						} else {
							parent.kids[pq] = nil
						}
					}
					return true
				}
			}
			return false
		}
		if n.pos == p {
			break
		}
		q := quadrantOf(n.pos, p)
		parent, pq, n = n, q, n.kids[q]
	}
	if n == nil {
		return false
	}
	idx := -1
	for i, v := range n.res {
		if v.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	n.res = append(n.res[:idx], n.res[idx+1:]...)
	t.size--
	if len(n.res) > 0 {
		return true
	}
	// The dividing position holds no more objects. A childless divider is
	// simply unlinked; one with live subtrees becomes a ghost, swept by
	// the amortized rebuild below.
	dead := true
	for _, k := range n.kids {
		if k != nil {
			dead = false
			break
		}
	}
	if dead {
		if parent == nil {
			t.root = nil
		} else {
			parent.kids[pq] = nil
		}
		return true
	}
	t.ghosts++
	if t.ghosts*4 > t.size {
		t.rebuild()
	}
	return true
}

// rebuild replaces the tree with a balanced ghost-free copy of its live
// entries, tightening every cached rectangle exactly.
func (t *Quadtree) rebuild() {
	var items []Item
	collect(t.root, &items)
	t.root = buildSubtree(items, true)
	t.ghosts = 0
}

// collect appends every item in the subtree rooted at n.
func collect(n *qnode, out *[]Item) {
	if n == nil {
		return
	}
	if n.leaf {
		*out = append(*out, n.items...)
		return
	}
	*out = append(*out, n.res...)
	for _, k := range n.kids {
		collect(k, out)
	}
}

// Rebuild replaces the tree's contents with a balanced bulk load of items
// (buildSubtree), giving logarithmic depth regardless of input order. The
// caller's slice is left untouched.
//
// Its value is the worst case, not the average: on randomly ordered input,
// incremental insertion already yields a balanced tree and is considerably
// faster (BenchmarkIndexBulkLoad), but on sorted or clustered replay input
// — exactly what a recovering server may receive when visitors re-report in
// a systematic order — incremental insertion degenerates into a chain while
// the bulk load guarantees logarithmic depth.
func (t *Quadtree) Rebuild(items []Item) {
	t.root = buildSubtree(append([]Item(nil), items...), true)
	t.size = len(items)
	t.ghosts = 0
}

// buildSubtree constructs a balanced subtree: batches small enough for one
// bucket become leaves, larger ones are divided at the true median along
// alternating axes (Rebuild and deletion rebuilds share it, so a rebuild
// is also where stale rectangles are tightened). It may reorder items.
func buildSubtree(items []Item, byX bool) *qnode {
	if len(items) == 0 {
		return nil
	}
	n := &qnode{sub: geo.Rect{Min: items[0].Pos, Max: items[0].Pos}}
	for _, it := range items[1:] {
		n.growSub(it.Pos)
	}
	if len(items) <= qBucket {
		n.leaf = true
		n.items = append(n.items, items...)
		return n
	}
	sort.Slice(items, func(i, j int) bool {
		if byX {
			if items[i].Pos.X != items[j].Pos.X {
				return items[i].Pos.X < items[j].Pos.X
			}
			return items[i].Pos.Y < items[j].Pos.Y
		}
		if items[i].Pos.Y != items[j].Pos.Y {
			return items[i].Pos.Y < items[j].Pos.Y
		}
		return items[i].Pos.X < items[j].Pos.X
	})
	n.pos = items[len(items)/2].Pos
	var quads [4][]Item
	for _, it := range items {
		if it.Pos == n.pos {
			n.res = append(n.res, it)
			continue
		}
		q := quadrantOf(n.pos, it.Pos)
		quads[q] = append(quads[q], it)
	}
	for q := range quads {
		n.kids[q] = buildSubtree(quads[q], !byX)
	}
	return n
}

// Search implements Index on SearchBuckets, testing each item of a bucket
// that straddles r's border.
func (t *Quadtree) Search(r geo.Rect, visit func(id core.OID, p geo.Point) bool) {
	t.SearchBuckets(r, func(items []Item, _ geo.Rect, inside bool) bool {
		for i := range items {
			if it := &items[i]; (inside || r.ContainsClosed(it.Pos)) && !visit(it.ID, it.Pos) {
				return false
			}
		}
		return true
	})
}

// SearchBuckets hands visit every leaf bucket whose subtree rectangle
// meets the closed rectangle r, and the residents of every divider whose
// position lies in r, a bucket at a time and in place: items aims into the
// tree, so it is valid, and must stay unmodified, for the duration of the
// visit call only. sub bounds every position in items (for residents it is
// their one position); inside reports that sub lies in r, so that every
// item does. A bucket that straddles r's border may hold items outside r,
// which the visitor filters itself. Returning false from visit stops the
// search; SearchBuckets reports whether it ran to the end.
//
// The descent is iterative over an explicit worklist (no call frame per
// node — range probes repeat once per shard, so per-node overhead is the
// multiplier the sharded store pays) and prunes twice: the classic
// quadrant half-plane tests, which never touch a child node's memory, then
// each visited node's cached subtree rectangle — so a subtree whose actual
// data lies nowhere near r is abandoned on entry even when its quadrant
// region intersects r.
func (t *Quadtree) SearchBuckets(r geo.Rect, visit func(items []Item, sub geo.Rect, inside bool) bool) bool {
	if t.root == nil {
		return true
	}
	// The worklist holds pending siblings: at most three per level, so a
	// fixed array covers any sanely balanced tree without allocating and
	// append spills to the heap for degenerate ones.
	var arr [32]*qnode
	stack := append(arr[:0], t.root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !n.sub.IntersectsClosed(r) {
			continue
		}
		if n.leaf {
			if !visit(n.items, n.sub, r.ContainsRect(n.sub)) {
				return false
			}
			continue
		}
		if len(n.res) > 0 && r.ContainsClosed(n.pos) && !visit(n.res, geo.Rect{Min: n.pos, Max: n.pos}, true) {
			return false
		}
		// Push quadrants that can intersect r.
		// Quadrant 0 (NE): x >= pos.X, y >= pos.Y, etc.
		east, north := r.Max.X >= n.pos.X, r.Max.Y >= n.pos.Y
		west, south := r.Min.X < n.pos.X, r.Min.Y < n.pos.Y
		if k := n.kids[0]; k != nil && east && north {
			stack = append(stack, k)
		}
		if k := n.kids[1]; k != nil && west && north {
			stack = append(stack, k)
		}
		if k := n.kids[2]; k != nil && west && south {
			stack = append(stack, k)
		}
		if k := n.kids[3]; k != nil && east && south {
			stack = append(stack, k)
		}
	}
	return true
}

// qref is one pending step of a paused best-first traversal: a subtree
// still to be expanded (node != nil), or a single entry ready to be
// reported. Subtrees are keyed by the minimum distance to their cached
// subtree rectangle, which is tighter than the quadrant region and keeps
// the heap free of region bookkeeping.
type qref struct {
	node *qnode // nil for point entries
	item Item   // set for point entries
}

// quadCursor is the quadtree's resumable nearest-neighbor cursor: the
// best-first priority queue, paused between neighbors.
type quadCursor struct {
	p      geo.Point
	h      heapOf[qref]
	closed bool
}

var quadCursorPool = sync.Pool{New: func() any { return new(quadCursor) }}

// NearestCursor implements Index. The cursor shares the tree's nodes, so it
// obeys the same synchronization rules as every other read.
func (t *Quadtree) NearestCursor(p geo.Point) Cursor {
	c := quadCursorPool.Get().(*quadCursor)
	c.p = p
	c.closed = false
	c.h.reset()
	if t.root != nil {
		c.h.push(t.root.sub.DistToPoint(p), qref{node: t.root})
	}
	return c
}

// Next implements Cursor: pop pending steps until a point entry surfaces,
// expanding subtree steps into their quadrants and resident entries. Child
// keys are clamped to the popped key so the stream stays monotone even when
// the tree is modified between calls (on a quiescent tree the clamp is a
// no-op: a subtree's minimum distance never undercuts its parent's).
func (c *quadCursor) Next() (Neighbor, bool) {
	for c.h.len() > 0 {
		e := c.h.pop()
		if e.val.node == nil {
			it := e.val.item
			return Neighbor{ID: it.ID, Pos: it.Pos, Dist: e.key, Ref: it.Ref, Acc: it.Acc}, true
		}
		n := e.val.node
		floor := e.key
		if n.leaf {
			for _, it := range n.items {
				d := it.Pos.Dist(c.p)
				if d < floor {
					d = floor
				}
				c.h.push(d, qref{item: it})
			}
			continue
		}
		d := n.pos.Dist(c.p)
		if d < floor {
			d = floor
		}
		for _, it := range n.res {
			c.h.push(d, qref{item: it})
		}
		for _, k := range n.kids {
			if k == nil {
				continue
			}
			kd := k.sub.DistToPoint(c.p)
			if kd < floor {
				kd = floor
			}
			c.h.push(kd, qref{node: k})
		}
	}
	return Neighbor{}, false
}

// Close implements Cursor, returning the traversal state to a pool.
func (c *quadCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.h.reset()
	quadCursorPool.Put(c)
}

// NearestFunc implements Index by draining a cursor: best-first search over
// subtree rectangles reports entries in exact increasing-distance order.
func (t *Quadtree) NearestFunc(p geo.Point, visit func(id core.OID, q geo.Point, dist float64) bool) {
	c := t.NearestCursor(p)
	defer c.Close()
	for {
		n, ok := c.Next()
		if !ok || !visit(n.ID, n.Pos, n.Dist) {
			return
		}
	}
}
