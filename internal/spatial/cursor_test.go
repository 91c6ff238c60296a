package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// partitioned is a test-only Index of four sub-indexes partitioned by
// ShardFor, each behind its own lock. Its nearest-neighbor cursor is built
// the way store.ShardedSightingDB builds its own: one lazily opened
// CursorSource per part, keyed by the distance to the part's bounding
// rectangle and advanced under the part's read lock (LockCursor), merged by
// MergeSources — which is the coverage the tests below want from it.
type partitioned struct {
	mu    [4]sync.RWMutex
	parts [4]Index
}

func newPartitionedQuadtree() Index {
	pt := new(partitioned)
	for i := range pt.parts {
		pt.parts[i] = NewQuadtree()
	}
	return pt
}

var everywhere = geo.R(math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1))

func (pt *partitioned) Insert(id core.OID, p geo.Point) {
	i := ShardFor(id, len(pt.parts))
	pt.mu[i].Lock()
	defer pt.mu[i].Unlock()
	pt.parts[i].Insert(id, p)
}

func (pt *partitioned) Remove(id core.OID, p geo.Point) bool {
	i := ShardFor(id, len(pt.parts))
	pt.mu[i].Lock()
	defer pt.mu[i].Unlock()
	return pt.parts[i].Remove(id, p)
}

func (pt *partitioned) Len() int {
	n := 0
	for i, part := range pt.parts {
		pt.mu[i].RLock()
		n += part.Len()
		pt.mu[i].RUnlock()
	}
	return n
}

func (pt *partitioned) Search(r geo.Rect, visit func(id core.OID, p geo.Point) bool) {
	stopped := false
	for i, part := range pt.parts {
		pt.mu[i].RLock()
		part.Search(r, func(id core.OID, p geo.Point) bool {
			stopped = !visit(id, p)
			return !stopped
		})
		pt.mu[i].RUnlock()
		if stopped {
			return
		}
	}
}

func (pt *partitioned) NearestCursor(p geo.Point) Cursor {
	var srcs []CursorSource
	for i := range pt.parts {
		mu, part := &pt.mu[i], pt.parts[i] // go.mod says 1.21: no per-iteration loop variables
		// The part's exact bounding rectangle, by a scan: a part lying
		// beyond the consumer's stopping distance must never be opened.
		var bound geo.Rect
		mu.RLock()
		n := 0
		part.Search(everywhere, func(_ core.OID, q geo.Point) bool {
			if n == 0 {
				bound = geo.Rect{Min: q, Max: q}
			}
			bound.GrowToInclude(q)
			n++
			return true
		})
		mu.RUnlock()
		if n == 0 {
			continue
		}
		srcs = append(srcs, CursorSource{MinDist: bound.DistToPoint(p), Open: func() Cursor {
			mu.RLock()
			defer mu.RUnlock()
			return LockCursor(mu, part.NearestCursor(p))
		}})
	}
	return MergeSources(srcs)
}

func (pt *partitioned) NearestFunc(p geo.Point, visit func(id core.OID, q geo.Point, dist float64) bool) {
	c := pt.NearestCursor(p)
	defer c.Close()
	for {
		n, ok := c.Next()
		if !ok || !visit(n.ID, n.Pos, n.Dist) {
			return
		}
	}
}

// cursorTestIndexes enumerates every Index implementation under the cursor
// contract, including the partitioned stand-in (whose cursor is the lazy
// merge).
func cursorTestIndexes() []indexKind {
	return append(allKinds[:len(allKinds):len(allKinds)], indexKind{"partitioned", newPartitionedQuadtree})
}

// TestCursorMatchesNearestFunc: on a quiescent snapshot, the cursor stream
// is exactly the NearestFunc stream — same entries, same order, same
// distances — for every implementation, with duplicate positions present.
func TestCursorMatchesNearestFunc(t *testing.T) {
	for _, tc := range cursorTestIndexes() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			ix := tc.mk()
			for i := 0; i < 400; i++ {
				// Coarse grid so duplicate positions occur regularly.
				p := geo.Pt(float64(rng.Intn(40)), float64(rng.Intn(40)))
				ix.Insert(core.OID(fmt.Sprintf("o%d", i)), p)
			}
			for trial := 0; trial < 5; trial++ {
				q := geo.Pt(rng.Float64()*40, rng.Float64()*40)
				type rec struct {
					id   core.OID
					dist float64
				}
				var want []rec
				ix.NearestFunc(q, func(id core.OID, _ geo.Point, d float64) bool {
					want = append(want, rec{id, d})
					return true
				})
				c := ix.NearestCursor(q)
				var got []rec
				for {
					n, ok := c.Next()
					if !ok {
						break
					}
					got = append(got, rec{n.ID, n.Dist})
				}
				c.Close()
				if len(got) != len(want) {
					t.Fatalf("cursor yielded %d entries, NearestFunc %d", len(got), len(want))
				}
				for i := range got {
					if got[i].dist != want[i].dist {
						t.Fatalf("dist[%d] = %v, want %v", i, got[i].dist, want[i].dist)
					}
					// Ordering between equidistant entries is
					// unspecified, so ids are only compared when the
					// distance is unique on both sides.
					uniq := (i == 0 || want[i-1].dist != want[i].dist) &&
						(i == len(want)-1 || want[i+1].dist != want[i].dist)
					if uniq && got[i].id != want[i].id {
						t.Fatalf("id[%d] = %s, want %s", i, got[i].id, want[i].id)
					}
				}
			}
		})
	}
}

// TestCursorMonotoneAcrossMutation: a cursor resumed across interleaved
// inserts and removes still yields non-decreasing distances, for every
// implementation.
func TestCursorMonotoneAcrossMutation(t *testing.T) {
	for _, tc := range cursorTestIndexes() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			ix := tc.mk()
			pos := map[core.OID]geo.Point{}
			insert := func(i int) {
				id := core.OID(fmt.Sprintf("m%d", i))
				if p, ok := pos[id]; ok {
					ix.Remove(id, p)
				}
				p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
				ix.Insert(id, p)
				pos[id] = p
			}
			for i := 0; i < 300; i++ {
				insert(i)
			}
			q := geo.Pt(50, 50)
			c := ix.NearestCursor(q)
			defer c.Close()
			last := -1.0
			yielded := 0
			for step := 0; step < 40; step++ {
				// Pull a few neighbors...
				for k := 0; k < 3; k++ {
					n, ok := c.Next()
					if !ok {
						return
					}
					if n.Dist < last {
						t.Fatalf("step %d: dist %v after %v (decreasing)", step, n.Dist, last)
					}
					last = n.Dist
					yielded++
				}
				// ... then churn the index, including points closer than
				// the cursor frontier.
				for k := 0; k < 10; k++ {
					insert(rng.Intn(300))
				}
				id := core.OID(fmt.Sprintf("new%d", step))
				ix.Insert(id, geo.Pt(50+rng.Float64(), 50+rng.Float64()))
			}
			if yielded == 0 {
				t.Fatal("cursor yielded nothing")
			}
		})
	}
}

// TestShardedPruningMatchesOracle: after a heavy interleaving of inserts
// and removes, a fanned-out Search and a NearestFunc merged from lazily
// opened, rectangle-keyed per-part cursors agree exactly with the linear
// reference.
func TestShardedPruningMatchesOracle(t *testing.T) {
	t.Run("quadtree", func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		ref := NewLinear()
		sh := newPartitionedQuadtree()
		pos := map[core.OID]geo.Point{}
		var ids []core.OID
		for step := 0; step < 4000; step++ {
			switch {
			case len(ids) == 0 || rng.Intn(3) > 0:
				id := core.OID(fmt.Sprintf("o%d", step))
				p := geo.Pt(float64(rng.Intn(200)), float64(rng.Intn(200)))
				ref.Insert(id, p)
				sh.Insert(id, p)
				pos[id] = p
				ids = append(ids, id)
			default:
				i := rng.Intn(len(ids))
				id := ids[i]
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				if !sh.Remove(id, pos[id]) || !ref.Remove(id, pos[id]) {
					t.Fatalf("remove %s failed", id)
				}
				delete(pos, id)
			}
		}
		if sh.Len() != ref.Len() {
			t.Fatalf("Len = %d, want %d", sh.Len(), ref.Len())
		}
		// Search oracle over random rectangles (some clustered in
		// corners, where stale bounds would over- or under-prune).
		for trial := 0; trial < 50; trial++ {
			x, y := rng.Float64()*200, rng.Float64()*200
			w, h := rng.Float64()*60, rng.Float64()*60
			r := geo.R(x, y, x+w, y+h)
			want := idsIn(ref, r)
			if got := idsIn(sh, r); !equalIDs(got, want) {
				t.Fatalf("Search(%v): got %d ids, want %d", r, len(got), len(want))
			}
		}
		// Nearest oracle: full-stream distance equality.
		for trial := 0; trial < 10; trial++ {
			q := geo.Pt(rng.Float64()*200, rng.Float64()*200)
			var want, got []float64
			ref.NearestFunc(q, func(_ core.OID, _ geo.Point, d float64) bool {
				want = append(want, d)
				return true
			})
			sh.NearestFunc(q, func(_ core.OID, _ geo.Point, d float64) bool {
				got = append(got, d)
				return true
			})
			if len(got) != len(want) {
				t.Fatalf("nearest stream %d entries, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("nearest dist[%d] = %v, want %v", i, got[i], want[i])
				}
			}
		}
	})
}

// TestMergeSourcesLazyOpen: sources beyond the consumer's stopping distance
// are never opened, and closing the merge closes every opened source.
func TestMergeSourcesLazyOpen(t *testing.T) {
	mkSource := func(minDist float64, dists ...float64) (CursorSource, *int) {
		opened := new(int)
		l := NewLinear()
		for i, d := range dists {
			l.Insert(core.OID(fmt.Sprintf("s%v-%d", minDist, i)), geo.Pt(d, 0))
		}
		return CursorSource{MinDist: minDist, Open: func() Cursor {
			*opened++
			return l.NearestCursor(geo.Pt(0, 0))
		}}, opened
	}
	near, nearOpened := mkSource(0, 1, 2, 3)
	far, farOpened := mkSource(100, 100, 101)
	c := MergeSources([]CursorSource{far, near})
	for i := 0; i < 3; i++ {
		n, ok := c.Next()
		if !ok {
			t.Fatalf("Next %d: stream ended early", i)
		}
		if n.Dist != float64(i+1) {
			t.Fatalf("Next %d: dist %v, want %d", i, n.Dist, i+1)
		}
	}
	c.Close()
	if *nearOpened != 1 {
		t.Errorf("near source opened %d times, want 1", *nearOpened)
	}
	if *farOpened != 0 {
		t.Errorf("far source opened %d times, want 0 (beyond stopping distance)", *farOpened)
	}
	// Draining past the far source's bound must open it.
	near2, _ := mkSource(0, 1, 2, 3)
	far2, far2Opened := mkSource(100, 100, 101)
	c = MergeSources([]CursorSource{near2, far2})
	count := 0
	for {
		if _, ok := c.Next(); !ok {
			break
		}
		count++
	}
	c.Close()
	if count != 5 {
		t.Errorf("full drain yielded %d, want 5", count)
	}
	if *far2Opened != 1 {
		t.Errorf("far source opened %d times on full drain, want 1", *far2Opened)
	}
}
