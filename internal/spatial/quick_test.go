package spatial

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// pointSet is a generated batch of insert positions for property tests.
type pointSet []geo.Point

// Generate implements quick.Generator with coordinates on a coarse grid so
// duplicate positions occur regularly (the hard case for tree indexes).
func (pointSet) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size*4 + 1)
	ps := make(pointSet, n)
	for i := range ps {
		ps[i] = geo.Pt(float64(rng.Intn(50)), float64(rng.Intn(50)))
	}
	return reflect.ValueOf(ps)
}

// TestQuickSearchMatchesLinear: for any generated point set and query
// rectangle, quadtree and partitioned searches return exactly what the
// linear reference does.
func TestQuickSearchMatchesLinear(t *testing.T) {
	prop := func(ps pointSet, qx0, qy0, qx1, qy1 int8) bool {
		ref := NewLinear()
		qt := NewQuadtree()
		sh := newPartitionedQuadtree()
		for i, p := range ps {
			id := core.OID(fmt.Sprintf("o%d", i))
			ref.Insert(id, p)
			qt.Insert(id, p)
			sh.Insert(id, p)
		}
		r := geo.R(float64(qx0), float64(qy0), float64(qx1), float64(qy1))
		want := idsIn(ref, r)
		return equalIDs(idsIn(qt, r), want) && equalIDs(idsIn(sh, r), want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeleteHalfMatchesLinear: deleting an arbitrary half of the
// entries leaves the quadtree, the partitioned stand-in and the linear
// reference agreeing.
func TestQuickDeleteHalfMatchesLinear(t *testing.T) {
	prop := func(ps pointSet) bool {
		ref := NewLinear()
		qt := NewQuadtree()
		sh := newPartitionedQuadtree()
		for i, p := range ps {
			id := core.OID(fmt.Sprintf("o%d", i))
			ref.Insert(id, p)
			qt.Insert(id, p)
			sh.Insert(id, p)
		}
		for i, p := range ps {
			if i%2 == 1 {
				continue
			}
			id := core.OID(fmt.Sprintf("o%d", i))
			if !ref.Remove(id, p) || !qt.Remove(id, p) || !sh.Remove(id, p) {
				return false
			}
		}
		if qt.Len() != ref.Len() || sh.Len() != ref.Len() {
			return false
		}
		all := geo.R(-1, -1, 51, 51)
		want := idsIn(ref, all)
		return equalIDs(idsIn(qt, all), want) && equalIDs(idsIn(sh, all), want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickNearestStreamMatchesLinear: the merged nearest-neighbor stream
// of the partitioned stand-in (MergeSources over four quadtrees) yields
// exactly the linear reference's distance sequence, for the whole
// population.
func TestQuickNearestStreamMatchesLinear(t *testing.T) {
	prop := func(ps pointSet, qx, qy int8) bool {
		ref := NewLinear()
		sh := newPartitionedQuadtree()
		for i, p := range ps {
			id := core.OID(fmt.Sprintf("o%d", i))
			ref.Insert(id, p)
			sh.Insert(id, p)
		}
		q := geo.Pt(float64(qx), float64(qy))
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
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNearestIsGlobalMinimum: the first entry NearestFunc reports is
// always a global distance minimum.
func TestQuickNearestIsGlobalMinimum(t *testing.T) {
	prop := func(ps pointSet, qx, qy int8) bool {
		if len(ps) == 0 {
			return true
		}
		q := geo.Pt(float64(qx), float64(qy))
		best := ps[0].Dist(q)
		for _, p := range ps[1:] {
			if d := p.Dist(q); d < best {
				best = d
			}
		}
		for _, mk := range []func() Index{
			func() Index { return NewQuadtree() },
			newPartitionedQuadtree,
		} {
			ix := mk()
			for i, p := range ps {
				ix.Insert(core.OID(fmt.Sprintf("o%d", i)), p)
			}
			var got float64
			found := false
			ix.NearestFunc(q, func(_ core.OID, _ geo.Point, d float64) bool {
				got, found = d, true
				return false
			})
			if !found || got != best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
