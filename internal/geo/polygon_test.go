package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestPolygonArea(t *testing.T) {
	tests := []struct {
		name string
		pg   Polygon
		want float64
	}{
		{"unit square", Polygon{{0, 0}, {1, 0}, {1, 1}, {0, 1}}, 1},
		{"unit square cw", Polygon{{0, 0}, {0, 1}, {1, 1}, {1, 0}}, 1},
		{"triangle", Polygon{{0, 0}, {4, 0}, {0, 3}}, 6},
		{"degenerate", Polygon{{0, 0}, {1, 1}}, 0},
		{"empty", Polygon{}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.pg.Area(); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Area = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSignedAreaOrientation(t *testing.T) {
	ccw := Polygon{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	if ccw.SignedArea() <= 0 {
		t.Error("ccw polygon has non-positive signed area")
	}
	cw := Polygon{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	if cw.SignedArea() >= 0 {
		t.Error("cw polygon has non-negative signed area")
	}
	if cw.SignedArea() != -ccw.SignedArea() {
		t.Error("reversing the vertices did not negate the signed area")
	}
}

func TestPolygonContains(t *testing.T) {
	pg := Polygon{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(-1, 5), false},
		{Pt(11, 5), false},
		{Pt(5, -1), false},
		{Pt(0, 5), true},   // boundary counts as inside
		{Pt(10, 10), true}, // corner
		{Pt(5, 0), true},
	}
	for _, tt := range tests {
		if got := pg.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPolygonContainsConcave(t *testing.T) {
	// L-shaped polygon.
	pg := Polygon{{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10}}
	if !pg.Contains(Pt(2, 8)) {
		t.Error("point in L arm should be inside")
	}
	if pg.Contains(Pt(8, 8)) {
		t.Error("point in L notch should be outside")
	}
	if !pg.Contains(Pt(2, 2)) {
		t.Error("point in L base should be inside")
	}
}

func TestClipRect(t *testing.T) {
	square := Polygon{{0, 0}, {10, 0}, {10, 10}, {0, 10}}
	tests := []struct {
		name string
		clip Rect
		want float64
	}{
		{"full containment", R(-5, -5, 15, 15), 100},
		{"half", R(0, 0, 5, 10), 50},
		{"quarter", R(5, 5, 15, 15), 25},
		{"disjoint", R(20, 20, 30, 30), 0},
		{"sliver", R(9, 0, 11, 10), 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := square.IntersectRectArea(tt.clip)
			if math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("clip area = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestClipRectTriangle(t *testing.T) {
	tri := Polygon{{0, 0}, {10, 0}, {0, 10}}
	// Clip to left half: result is a trapezoid of area 50 - 12.5 = 37.5.
	got := tri.IntersectRectArea(R(0, 0, 5, 10))
	if math.Abs(got-37.5) > 1e-9 {
		t.Errorf("triangle clip area = %v, want 37.5", got)
	}
}

func TestClipRectClockwiseInput(t *testing.T) {
	cw := Polygon{{0, 0}, {0, 10}, {10, 10}, {10, 0}}
	got := cw.IntersectRectArea(R(0, 0, 5, 5))
	if math.Abs(got-25) > 1e-9 {
		t.Errorf("cw clip area = %v, want 25", got)
	}
}

func TestIntersectRectAreaRandomizedAgainstRectIntersect(t *testing.T) {
	// For rectangle polygons the clip must agree with Rect.Intersect.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := R(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		b := R(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		if a.Empty() || b.Empty() {
			continue
		}
		want := a.Intersect(b).Area()
		got := a.Poly().IntersectRectArea(b)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("iter %d: clip area %v, rect intersect %v (a=%v b=%v)", i, got, want, a, b)
		}
	}
}

func TestPolygonBounds(t *testing.T) {
	pg := Polygon{{3, 1}, {-2, 4}, {7, -5}}
	want := R(-2, -5, 7, 4)
	if got := pg.Bounds(); got != want {
		t.Errorf("Bounds = %v, want %v", got, want)
	}
	if got := (Polygon{}).Bounds(); !got.Empty() {
		t.Errorf("empty polygon bounds = %v", got)
	}
}

// referenceClipArea is the textbook Sutherland–Hodgman clipper the
// allocation-free IntersectRectArea is checked against: it materialises
// the polygon after each of the rectangle's four half-planes and takes the
// shoelace area of the last one.
func referenceClipArea(pg Polygon, r Rect) float64 {
	out := append(Polygon(nil), pg...)
	halfPlanes := []struct {
		inside func(Point) bool
		t      func(a, b Point) float64
	}{
		{func(p Point) bool { return p.X >= r.Min.X }, func(a, b Point) float64 { return (r.Min.X - a.X) / (b.X - a.X) }},
		{func(p Point) bool { return p.X <= r.Max.X }, func(a, b Point) float64 { return (r.Max.X - a.X) / (b.X - a.X) }},
		{func(p Point) bool { return p.Y >= r.Min.Y }, func(a, b Point) float64 { return (r.Min.Y - a.Y) / (b.Y - a.Y) }},
		{func(p Point) bool { return p.Y <= r.Max.Y }, func(a, b Point) float64 { return (r.Max.Y - a.Y) / (b.Y - a.Y) }},
	}
	for _, h := range halfPlanes {
		in := out
		out = nil
		for i, cur := range in {
			prev := in[(i+len(in)-1)%len(in)]
			if h.inside(cur) != h.inside(prev) {
				out = append(out, prev.Lerp(cur, h.t(prev, cur)))
			}
			if h.inside(cur) {
				out = append(out, cur)
			}
		}
	}
	return out.Area()
}

// reversed returns pg with its vertex order, and so its orientation,
// reversed.
func reversed(pg Polygon) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[len(pg)-1-i] = p
	}
	return out
}

// TestIntersectRectAreaMatchesReference compares IntersectRectArea with
// referenceClipArea on convex polygons in both orientations against
// rectangles placed inside, outside, across, along an edge of and at a
// corner of them, zero-width ones included.
func TestIntersectRectAreaMatchesReference(t *testing.T) {
	hexagon := Polygon{}
	for i := 0; i < 6; i++ {
		a := float64(i) * math.Pi / 3
		hexagon = append(hexagon, Pt(50+30*math.Cos(a), 50+30*math.Sin(a)))
	}
	polygons := map[string]Polygon{
		"square":          R(20, 20, 80, 80).Poly(),
		"turned by 45°":   {{50, 10}, {90, 50}, {50, 90}, {10, 50}},
		"hexagon":         hexagon,
		"triangle":        {{10, 10}, {90, 20}, {40, 85}},
		"thin sliver":     {{0, 50}, {100, 50.001}, {100, 50.002}},
		"many vertices":   ConvexHull(circlePoints(Pt(50, 50), 40, 200)),
		"one vertex hull": {{50, 50}, {50, 50}, {50, 50}},
	}
	rects := map[string]Rect{
		"containing":         R(0, 0, 100, 100),
		"inside":             R(45, 45, 55, 55),
		"outside":            R(200, 200, 300, 300),
		"across the left":    R(-10, 30, 35, 70),
		"quadrant":           R(50, 50, 150, 150),
		"edge-touching":      R(80, 20, 120, 80), // the square's right edge
		"corner-touching":    R(80, 80, 120, 120),
		"zero-width":         R(50, 0, 50, 100),
		"zero-height":        R(0, 50, 100, 50),
		"point":              R(50, 50, 50, 50),
		"thin strip through": R(49.5, -10, 50.5, 110),
	}
	check := func(t *testing.T, name string, pg Polygon, r Rect) {
		t.Helper()
		want := referenceClipArea(pg, r)
		for _, p := range []Polygon{pg, reversed(pg)} {
			got := p.IntersectRectArea(r)
			if math.Abs(got-want) > 1e-9*(1+pg.Area()) {
				t.Errorf("%s: IntersectRectArea = %v, reference %v", name, got, want)
			}
		}
	}
	for pn, pg := range polygons {
		for rn, r := range rects {
			check(t, pn+" / "+rn, pg, r)
		}
	}
	// Edge- and corner-touching rectangles share no area with the square.
	sq := polygons["square"]
	for _, rn := range []string{"edge-touching", "corner-touching", "outside"} {
		if got := sq.IntersectRectArea(rects[rn]); got != 0 {
			t.Errorf("square / %s: area %v, want 0", rn, got)
		}
	}
	if got := sq.IntersectRectArea(rects["containing"]); math.Abs(got-3600) > 1e-9 {
		t.Errorf("square inside the rectangle: area %v, want 3600", got)
	}

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		pts := make([]Point, 3+rng.Intn(30))
		for j := range pts {
			pts[j] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		pg := ConvexHull(pts)
		if rng.Intn(2) == 0 {
			pg = reversed(pg)
		}
		x, y := rng.Float64()*120-10, rng.Float64()*120-10
		w, h := rng.Float64()*60, rng.Float64()*60
		if rng.Intn(10) == 0 {
			w = 0
		}
		check(t, "random", pg, R(x, y, x+w, y+h))
	}
}

// circlePoints returns n points on the circle of radius rad around c.
func circlePoints(c Point, rad float64, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = Pt(c.X+rad*math.Cos(a), c.Y+rad*math.Sin(a))
	}
	return pts
}

// TestIntersectRectAreaAllocatesNothing pins the coverage arithmetic of
// every distributed query: no allocation, whatever the vertex count.
func TestIntersectRectAreaAllocatesNothing(t *testing.T) {
	big := ConvexHull(circlePoints(Pt(50, 50), 40, 500))
	for _, pg := range []Polygon{R(20, 20, 80, 80).Poly(), reversed(big)} {
		var area float64
		allocs := testing.AllocsPerRun(100, func() {
			area = pg.IntersectRectArea(R(30, 30, 130, 60))
		})
		if allocs != 0 {
			t.Errorf("%d vertices: %v allocations per call, want 0", len(pg), allocs)
		}
		if area <= 0 {
			t.Errorf("%d vertices: area %v", len(pg), area)
		}
	}
}
