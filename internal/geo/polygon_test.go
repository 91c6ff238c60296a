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
	fixed := cw.CCW()
	if fixed.SignedArea() <= 0 {
		t.Error("CCW() did not fix orientation")
	}
	if got := ccw.CCW().SignedArea(); got != ccw.SignedArea() {
		t.Error("CCW() changed an already-ccw polygon")
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
			got := square.ClipRect(tt.clip).Area()
			if math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("clip area = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestClipRectTriangle(t *testing.T) {
	tri := Polygon{{0, 0}, {10, 0}, {0, 10}}
	// Clip to left half: result is a trapezoid of area 50 - 12.5 = 37.5.
	got := tri.ClipRect(R(0, 0, 5, 10)).Area()
	if math.Abs(got-37.5) > 1e-9 {
		t.Errorf("triangle clip area = %v, want 37.5", got)
	}
}

func TestClipRectClockwiseInput(t *testing.T) {
	cw := Polygon{{0, 0}, {0, 10}, {10, 10}, {10, 0}}
	got := cw.ClipRect(R(0, 0, 5, 5)).Area()
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
