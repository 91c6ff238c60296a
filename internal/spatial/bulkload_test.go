package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

func randomItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			ID:  core.OID(fmt.Sprintf("o%d", i)),
			Pos: geo.Pt(rng.Float64()*1000, rng.Float64()*1000),
		}
	}
	return items
}

// Depth returns the height of the tree: TestBulkLoadBalanced bounds it.
func (t *Quadtree) Depth() int { return depthQ(t.root) }

func depthQ(n *qnode) int {
	if n == nil {
		return 0
	}
	max := 0
	for _, k := range n.kids {
		if d := depthQ(k); d > max {
			max = d
		}
	}
	return max + 1
}

// bulkLoad returns a quadtree bulk-loaded from items through Rebuild.
func bulkLoad(items []Item) *Quadtree {
	t := NewQuadtree()
	t.Rebuild(items)
	return t
}

func TestBulkLoadMatchesIncremental(t *testing.T) {
	items := randomItems(2000, 31)
	bulk := bulkLoad(items)
	inc := NewQuadtree()
	for _, it := range items {
		inc.Insert(it.ID, it.Pos)
	}
	if bulk.Len() != inc.Len() {
		t.Fatalf("Len %d vs %d", bulk.Len(), inc.Len())
	}
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		r := geo.R(rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000, rng.Float64()*1000)
		if !equalIDs(idsIn(bulk, r), idsIn(inc, r)) {
			t.Fatalf("trial %d: search mismatch on %v", trial, r)
		}
	}
	// Nearest streaming agrees with incremental build.
	q := geo.Pt(500, 500)
	want := KNearest(inc, q, 10)
	got := KNearest(bulk, q, 10)
	for i := range want {
		if want[i].Pos.Dist(q) != got[i].Pos.Dist(q) {
			t.Fatalf("knn rank %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestBulkLoadBalanced(t *testing.T) {
	// Sorted input is the worst case for incremental insertion; bulk
	// load must stay logarithmic.
	n := 4096
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: core.OID(fmt.Sprintf("o%d", i)), Pos: geo.Pt(float64(i), float64(i))}
	}
	bulk := bulkLoad(items)
	maxDepth := 4 * int(math.Ceil(math.Log2(float64(n+1))))
	if d := bulk.Depth(); d > maxDepth {
		t.Errorf("bulk depth %d for sorted input, want <= %d", d, maxDepth)
	}
	// Incremental insertion of the same sorted diagonal degenerates into
	// a chain — the case bulk loading exists for.
	inc := NewQuadtree()
	for _, it := range items {
		inc.Insert(it.ID, it.Pos)
	}
	if inc.Depth() <= bulk.Depth() {
		t.Skipf("incremental tree unexpectedly shallow (%d)", inc.Depth())
	}
}

func TestBulkLoadDuplicatesAndEmpty(t *testing.T) {
	if got := bulkLoad(nil); got.Len() != 0 {
		t.Errorf("empty bulk load Len = %d", got.Len())
	}
	p := geo.Pt(5, 5)
	items := []Item{{ID: "a", Pos: p}, {ID: "b", Pos: p}, {ID: "c", Pos: geo.Pt(1, 1)}}
	bulk := bulkLoad(items)
	if bulk.Len() != 3 {
		t.Fatalf("Len = %d", bulk.Len())
	}
	got := idsIn(bulk, geo.R(4, 4, 6, 6))
	if len(got) != 2 {
		t.Errorf("duplicate-position search = %v", got)
	}
	if !bulk.Remove("b", p) {
		t.Error("remove from bulk-loaded tree failed")
	}
	if bulk.Len() != 2 {
		t.Errorf("Len after remove = %d", bulk.Len())
	}
}

func TestRebuildAndBounds(t *testing.T) {
	t1 := NewQuadtree()
	t1.Insert("x", geo.Pt(0, 0))
	items := randomItems(100, 33)
	var want geo.Rect
	for i, it := range items {
		if i == 0 {
			want = geo.Rect{Min: it.Pos, Max: it.Pos}
		}
		want.GrowToInclude(it.Pos)
	}
	t1.Rebuild(items)
	if t1.Len() != 100 {
		t.Fatalf("Len after rebuild = %d", t1.Len())
	}
	if got := idsIn(t1, geo.R(0, 0, 0, 0)); len(got) != 0 {
		t.Errorf("entry from before the rebuild survived: %v", got)
	}
	// A rebuild recomputes the cached subtree rectangles exactly.
	if got := t1.root.sub; got != want {
		t.Errorf("root bounds = %v, want %v", got, want)
	}
	t1.Rebuild(nil)
	if t1.Len() != 0 || t1.root != nil {
		t.Errorf("rebuild from nothing left Len %d, root %v", t1.Len(), t1.root)
	}
}
