package spatial

import (
	"sync"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// Neighbor is one entry of a nearest-neighbor stream: an indexed object
// together with its distance from the query point. Ref and Acc are the
// entry's Item payload (see Item); an entry inserted without one, or a
// cursor over a source that keeps none (the store's disk runs), yields a
// nil Ref, and Acc means nothing without Ref.
type Neighbor struct {
	ID   core.OID
	Pos  geo.Point
	Dist float64
	Ref  any
	Acc  float64
}

// Cursor is a paused nearest-neighbor enumeration around a fixed query
// point. Each Next call advances the underlying traversal exactly far
// enough to produce one more neighbor, so a consumer that stops after k
// neighbors pays for k heap pops — not for a re-traversal of the prefix, as
// the earlier fetch-with-doubled-k protocol did.
//
// Contract:
//
//   - On a quiescent index, Next yields exactly the sequence NearestFunc
//     visits: every entry once, in non-decreasing distance order (ordering
//     between equidistant entries is unspecified).
//   - If the index is modified between Next calls, the stream degrades to a
//     best-effort snapshot — entries may be missed or reported twice — but
//     reported distances still never decrease: an entry that moved closer
//     than the cursor's frontier is reported at the frontier distance.
//   - Close releases the cursor's traversal state for reuse. A cursor must
//     not be used after Close; Close is idempotent.
//   - A cursor is only as concurrency-safe as the index it traverses:
//     callers synchronize Next/Close against writers exactly as they would
//     synchronize NearestFunc (the store wraps each advance in the owning
//     shard's read lock, LockCursor).
type Cursor interface {
	Next() (Neighbor, bool)
	Close()
}

// CursorSource describes one distance-ordered stream before it is opened:
// a lower bound on every distance the stream can yield (for a shard, the
// minimum distance from the query point to the shard's bounding rectangle)
// and a constructor the merge invokes lazily. Open is called at most once —
// only when the merge frontier reaches MinDist — so shards whose bounding
// rectangle lies beyond the consumer's stopping distance are never
// traversed, or even locked, at all.
type CursorSource struct {
	MinDist float64
	Open    func() Cursor
}

// mref is one merge-heap slot: an unopened source (cur == nil) keyed by its
// MinDist, or an opened cursor keyed by the distance of its buffered head.
type mref struct {
	cur  Cursor
	open func() Cursor
	head Neighbor
}

// mergeCursor merges several distance-ordered sources into one globally
// distance-ordered stream — the k-way merge behind sharded nearest-neighbor
// queries, now advancing each source one neighbor at a time.
type mergeCursor struct {
	h      heapOf[mref]
	last   float64
	closed bool
}

var mergeCursorPool = sync.Pool{New: func() any { return new(mergeCursor) }}

// MergeSources returns a cursor over the union of the given sources in
// global order of increasing distance. Sources are opened lazily: a source
// whose MinDist exceeds the distance at which the consumer stops is never
// opened. Closing the merge cursor closes every source it opened.
func MergeSources(srcs []CursorSource) Cursor {
	c := mergeCursorPool.Get().(*mergeCursor)
	c.h.reset()
	c.last = 0
	c.closed = false
	for _, s := range srcs {
		c.h.push(s.MinDist, mref{open: s.Open})
	}
	return c
}

// Next implements Cursor.
func (c *mergeCursor) Next() (Neighbor, bool) {
	for c.h.len() > 0 {
		top := c.h.es[0]
		if top.val.cur == nil {
			// The frontier reached an unopened source: open it and
			// slot its first neighbor back into the heap.
			cur := top.val.open()
			if n, ok := cur.Next(); ok {
				c.h.replaceTop(n.Dist, mref{cur: cur, head: n})
			} else {
				cur.Close()
				c.h.pop()
			}
			continue
		}
		out := top.val.head
		if n, ok := top.val.cur.Next(); ok {
			c.h.replaceTop(n.Dist, mref{cur: top.val.cur, head: n})
		} else {
			top.val.cur.Close()
			c.h.pop()
		}
		// Sub-streams are individually monotone, but a source opened
		// late can start below the frontier when entries were inserted
		// after its MinDist was computed; clamp so the merged stream
		// keeps the cursor contract.
		if out.Dist < c.last {
			out.Dist = c.last
		}
		c.last = out.Dist
		return out, true
	}
	return Neighbor{}, false
}

// Close implements Cursor, closing every source the merge opened.
func (c *mergeCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for i := range c.h.es {
		if cur := c.h.es[i].val.cur; cur != nil {
			cur.Close()
		}
	}
	c.h.reset()
	mergeCursorPool.Put(c)
}

// lockedCursor guards every advance of an inner cursor with a read lock, so
// a long-lived cursor over one shard of a concurrent index never holds the
// shard lock between neighbors and cannot starve writers.
type lockedCursor struct {
	mu *sync.RWMutex
	c  Cursor
}

// LockCursor wraps c so that each Next and the final Close run under
// mu.RLock. The inner cursor must have been created under the same lock.
func LockCursor(mu *sync.RWMutex, c Cursor) Cursor {
	return &lockedCursor{mu: mu, c: c}
}

// Next implements Cursor.
func (lc *lockedCursor) Next() (Neighbor, bool) {
	lc.mu.RLock()
	n, ok := lc.c.Next()
	lc.mu.RUnlock()
	return n, ok
}

// Close implements Cursor.
func (lc *lockedCursor) Close() {
	lc.mu.RLock()
	lc.c.Close()
	lc.mu.RUnlock()
}
