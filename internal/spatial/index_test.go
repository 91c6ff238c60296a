package spatial

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// indexKind is one Index implementation under test.
type indexKind struct {
	name string
	mk   func() Index
}

// allKinds enumerates the implementations under test: the quadtree and the
// brute-force reference it is checked against.
var allKinds = []indexKind{
	{"quadtree", func() Index { return NewQuadtree() }},
	{"linear", func() Index { return NewLinear() }},
}

func TestNewFallsBackToQuadtree(t *testing.T) {
	for _, k := range []Kind{KindQuadtree, Kind(99)} {
		if _, ok := New(k).(*Quadtree); !ok {
			t.Errorf("New(%d) is not a quadtree", k)
		}
	}
}

func TestInsertSearchBasic(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := kind.mk()
			ix.Insert("a", geo.Pt(1, 1))
			ix.Insert("b", geo.Pt(5, 5))
			ix.Insert("c", geo.Pt(9, 9))
			if ix.Len() != 3 {
				t.Fatalf("Len = %d", ix.Len())
			}
			got := idsIn(ix, geo.R(0, 0, 6, 6))
			want := []core.OID{"a", "b"}
			if !equalIDs(got, want) {
				t.Errorf("Search = %v, want %v", got, want)
			}
			// Boundary point included (closed search).
			got = idsIn(ix, geo.R(9, 9, 10, 10))
			if !equalIDs(got, []core.OID{"c"}) {
				t.Errorf("boundary search = %v", got)
			}
		})
	}
}

func TestRemove(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := kind.mk()
			ix.Insert("a", geo.Pt(1, 1))
			ix.Insert("b", geo.Pt(2, 2))
			if !ix.Remove("a", geo.Pt(1, 1)) {
				t.Fatal("Remove existing returned false")
			}
			if ix.Remove("a", geo.Pt(1, 1)) {
				t.Error("Remove twice returned true")
			}
			if ix.Remove("b", geo.Pt(9, 9)) {
				t.Error("Remove with wrong position returned true")
			}
			if ix.Len() != 1 {
				t.Errorf("Len = %d, want 1", ix.Len())
			}
			if got := idsIn(ix, geo.R(0, 0, 10, 10)); !equalIDs(got, []core.OID{"b"}) {
				t.Errorf("after remove: %v", got)
			}
		})
	}
}

func TestDuplicatePositions(t *testing.T) {
	// Multiple objects sighted at exactly the same coordinates.
	for _, kind := range allKinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := kind.mk()
			p := geo.Pt(3, 3)
			ix.Insert("a", p)
			ix.Insert("b", p)
			ix.Insert("c", p)
			if got := idsIn(ix, geo.R(2, 2, 4, 4)); !equalIDs(got, []core.OID{"a", "b", "c"}) {
				t.Errorf("duplicate search = %v", got)
			}
			if !ix.Remove("b", p) {
				t.Fatal("remove middle duplicate failed")
			}
			if got := idsIn(ix, geo.R(2, 2, 4, 4)); !equalIDs(got, []core.OID{"a", "c"}) {
				t.Errorf("after removing duplicate = %v", got)
			}
		})
	}
}

func TestSearchEarlyStop(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := kind.mk()
			for i := 0; i < 100; i++ {
				ix.Insert(core.OID(fmt.Sprintf("o%d", i)), geo.Pt(float64(i%10), float64(i/10)))
			}
			count := 0
			ix.Search(geo.R(0, 0, 10, 10), func(core.OID, geo.Point) bool {
				count++
				return count < 5
			})
			if count != 5 {
				t.Errorf("early stop visited %d", count)
			}
		})
	}
}

func TestNearestOrdering(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := kind.mk()
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 300; i++ {
				ix.Insert(core.OID(fmt.Sprintf("o%d", i)), geo.Pt(rng.Float64()*1000, rng.Float64()*1000))
			}
			q := geo.Pt(500, 500)
			prev := -1.0
			n := 0
			ix.NearestFunc(q, func(_ core.OID, p geo.Point, dist float64) bool {
				if dist < prev-1e-9 {
					t.Fatalf("distance went backwards: %v after %v", dist, prev)
				}
				if d := p.Dist(q); d != dist {
					t.Fatalf("reported dist %v != actual %v", dist, d)
				}
				prev = dist
				n++
				return true
			})
			if n != 300 {
				t.Errorf("visited %d entries, want 300", n)
			}
		})
	}
}

func TestKNearestAgainstLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ref := NewLinear()
	qt := NewQuadtree()
	for i := 0; i < 500; i++ {
		p := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		id := core.OID(fmt.Sprintf("o%d", i))
		ref.Insert(id, p)
		qt.Insert(id, p)
	}
	for trial := 0; trial < 25; trial++ {
		q := geo.Pt(rng.Float64()*100, rng.Float64()*100)
		want := KNearest(ref, q, 10)
		got := KNearest(qt, q, 10)
		if len(got) != len(want) {
			t.Fatalf("got %d results, want %d", len(got), len(want))
		}
		for i := range got {
			// Compare distances (ids may differ on exact ties).
			if dg, dw := got[i].Pos.Dist(q), want[i].Pos.Dist(q); dg != dw {
				t.Errorf("trial %d rank %d: dist %v, want %v", trial, i, dg, dw)
			}
		}
	}
}

func TestRandomizedOpsAgainstLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ref := NewLinear()
	qt := NewQuadtree()
	type entry struct {
		id core.OID
		p  geo.Point
	}
	var live []entry

	for op := 0; op < 5000; op++ {
		switch {
		case len(live) == 0 || rng.Float64() < 0.55:
			id := core.OID(fmt.Sprintf("o%d", op))
			p := geo.Pt(rng.Float64()*200, rng.Float64()*200)
			live = append(live, entry{id, p})
			ref.Insert(id, p)
			qt.Insert(id, p)
		default:
			i := rng.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if !ref.Remove(e.id, e.p) {
				t.Fatal("reference remove failed")
			}
			if !qt.Remove(e.id, e.p) {
				t.Fatalf("remove %v failed at op %d", e.id, op)
			}
		}
		if op%250 == 0 {
			r := geo.R(rng.Float64()*200, rng.Float64()*200, rng.Float64()*200, rng.Float64()*200)
			want := idsIn(ref, r)
			if qt.Len() != ref.Len() {
				t.Fatalf("Len %d, want %d", qt.Len(), ref.Len())
			}
			if got := idsIn(qt, r); !equalIDs(got, want) {
				t.Fatalf("search mismatch at op %d: got %d ids, want %d", op, len(got), len(want))
			}
		}
	}
}

func TestQuadtreeDepthReasonable(t *testing.T) {
	qt := NewQuadtree()
	rng := rand.New(rand.NewSource(1))
	n := 10_000
	for i := 0; i < n; i++ {
		qt.Insert(core.OID(fmt.Sprintf("o%d", i)), geo.Pt(rng.Float64()*10_000, rng.Float64()*10_000))
	}
	// Random insertion order gives expected depth O(log n); allow slack.
	if d := qt.Depth(); d > 60 {
		t.Errorf("quadtree depth %d for %d random points", d, n)
	}
}

func TestKNearestZeroAndEmpty(t *testing.T) {
	ix := NewQuadtree()
	if got := KNearest(ix, geo.Pt(0, 0), 5); len(got) != 0 {
		t.Errorf("KNearest on empty = %v", got)
	}
	ix.Insert("a", geo.Pt(1, 1))
	if got := KNearest(ix, geo.Pt(0, 0), 0); got != nil {
		t.Errorf("KNearest k=0 = %v", got)
	}
	if got := KNearest(ix, geo.Pt(0, 0), 10); len(got) != 1 {
		t.Errorf("KNearest k>len = %v", got)
	}
}

func TestSearchAll(t *testing.T) {
	ix := NewQuadtree()
	ix.Insert("a", geo.Pt(1, 1))
	ix.Insert("b", geo.Pt(3, 3))
	items := SearchAll(ix, geo.R(0, 0, 2, 2))
	if len(items) != 1 || items[0].ID != "a" {
		t.Errorf("SearchAll = %v", items)
	}
}

// idsIn returns the sorted ids inside r.
func idsIn(ix Index, r geo.Rect) []core.OID {
	var ids []core.OID
	ix.Search(r, func(id core.OID, _ geo.Point) bool {
		ids = append(ids, id)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []core.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
