package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 10, 5)
	if got := r.Width(); got != 10 {
		t.Errorf("Width = %v", got)
	}
	if got := r.Height(); got != 5 {
		t.Errorf("Height = %v", got)
	}
	if got := r.Area(); got != 50 {
		t.Errorf("Area = %v", got)
	}
	if got := r.Center(); got != Pt(5, 2.5) {
		t.Errorf("Center = %v", got)
	}
	if r.Empty() {
		t.Error("non-empty rect reported Empty")
	}
	if !(Rect{}).Empty() {
		t.Error("zero rect not Empty")
	}
}

func TestRNormalizesCorners(t *testing.T) {
	r := R(10, 5, 0, 0)
	if r.Min != Pt(0, 0) || r.Max != Pt(10, 5) {
		t.Errorf("R did not normalize: %v", r)
	}
}

func TestRectContainsHalfOpen(t *testing.T) {
	r := R(0, 0, 10, 10)
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(0, 0), true},    // min corner inside
		{Pt(10, 10), false}, // max corner outside (half-open)
		{Pt(10, 5), false},
		{Pt(5, 10), false},
		{Pt(0, 9.999), true},
		{Pt(-0.001, 5), false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !r.ContainsClosed(Pt(10, 10)) {
		t.Error("ContainsClosed should include max corner")
	}
}

func TestRectIntersect(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	got := a.Intersect(b)
	if got != R(5, 5, 10, 10) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Intersects(b) {
		t.Error("Intersects = false")
	}
	c := R(20, 20, 30, 30)
	if a.Intersects(c) {
		t.Error("disjoint rects reported intersecting")
	}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersection not empty")
	}
	// Touching edges share no area.
	d := R(10, 0, 20, 10)
	if a.Intersects(d) {
		t.Error("edge-touching rects reported intersecting")
	}
}

func TestRectEnlarge(t *testing.T) {
	r := R(0, 0, 10, 10).Enlarge(5)
	if r != R(-5, -5, 15, 15) {
		t.Errorf("Enlarge = %v", r)
	}
}

func TestRectDistToPoint(t *testing.T) {
	r := R(0, 0, 10, 10)
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 5), 0},
		{Pt(13, 5), 3},
		{Pt(5, -2), 2},
		{Pt(13, 14), 5},
	}
	for _, tt := range tests {
		if got := r.DistToPoint(tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestSplitGridTilesParent(t *testing.T) {
	parent := R(0, 0, 1500, 1500)
	for _, grid := range []struct{ rows, cols int }{{1, 1}, {2, 2}, {3, 3}, {1, 4}, {4, 1}, {2, 3}} {
		children := parent.SplitGrid(grid.rows, grid.cols)
		if len(children) != grid.rows*grid.cols {
			t.Fatalf("grid %v: %d children", grid, len(children))
		}
		var sum float64
		for _, c := range children {
			sum += c.Area()
			if !parent.ContainsRect(c) {
				t.Errorf("child %v outside parent", c)
			}
		}
		if math.Abs(sum-parent.Area()) > 1e-6 {
			t.Errorf("grid %v: child areas sum to %v, want %v", grid, sum, parent.Area())
		}
		// No two children overlap.
		for i := range children {
			for j := i + 1; j < len(children); j++ {
				if children[i].Intersects(children[j]) {
					t.Errorf("children %d and %d overlap", i, j)
				}
			}
		}
	}
}

func TestSplitGridAssignsEveryPointToExactlyOneChild(t *testing.T) {
	parent := R(0, 0, 1000, 1000)
	children := parent.SplitGrid(3, 3)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		p := Pt(rng.Float64()*1000, rng.Float64()*1000)
		count := 0
		for _, c := range children {
			if c.Contains(p) {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("point %v contained in %d children", p, count)
		}
	}
	// Boundary points between children must belong to exactly one child too.
	for _, p := range []Point{Pt(333.3333333333333, 500), Pt(500, 666.6666666666666), Pt(0, 0)} {
		count := 0
		for _, c := range children {
			if c.Contains(p) {
				count++
			}
		}
		if count != 1 {
			t.Errorf("boundary point %v contained in %d children", p, count)
		}
	}
}

func TestSplitGridDegenerate(t *testing.T) {
	if got := R(0, 0, 1, 1).SplitGrid(0, 3); got != nil {
		t.Errorf("SplitGrid(0,3) = %v", got)
	}
	if got := R(0, 0, 1, 1).SplitGrid(2, -1); got != nil {
		t.Errorf("SplitGrid(2,-1) = %v", got)
	}
}

func TestRectIntersectionAreaProperty(t *testing.T) {
	// area(a ∩ b) <= min(area(a), area(b)) and intersection is symmetric.
	f := func(x0, y0, x1, y1, x2, y2, x3, y3 int16) bool {
		a := R(float64(x0), float64(y0), float64(x1), float64(y1))
		b := R(float64(x2), float64(y2), float64(x3), float64(y3))
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if ab != ba {
			return false
		}
		return ab.Area() <= math.Min(a.Area(), b.Area())+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectPoly(t *testing.T) {
	r := R(1, 2, 4, 6)
	pg := r.Poly()
	if got := pg.Area(); math.Abs(got-r.Area()) > 1e-12 {
		t.Errorf("Poly area = %v, want %v", got, r.Area())
	}
	if pg.SignedArea() <= 0 {
		t.Error("Poly not counter-clockwise")
	}
	if got := pg.Bounds(); got != r {
		t.Errorf("Poly bounds = %v, want %v", got, r)
	}
}
