package geo

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY]. Rectangles
// are the workhorse service-area and query-area shape: the paper's prototype
// partitions a square service area into rectangular quarters, and its range
// query experiments use square query areas.
type Rect struct {
	Min Point
	Max Point
}

// R constructs a rectangle from two corner coordinates, normalizing the
// corner order.
func R(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
}

// RectAround returns the square of side 2*half centered at c. It is used to
// turn a point query into an expanding search window.
func RectAround(c Point, half float64) Rect {
	return Rect{Min: Point{c.X - half, c.Y - half}, Max: Point{c.X + half, c.Y + half}}
}

// Width returns the extent of r along x.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of r along y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Empty reports whether r encloses no area.
func (r Rect) Empty() bool { return r.Max.X <= r.Min.X || r.Max.Y <= r.Min.Y }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies in r. Points on the minimum edges are
// inside and points on the maximum edges are outside, so that a partition of
// a parent rectangle into child rectangles assigns every point to exactly
// one child — the paper's requirement that sibling service areas do not
// overlap while their union is the parent area.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// ContainsClosed reports whether p lies in the closed rectangle, including
// all edges. Spatial index searches use the closed test so that objects
// sitting exactly on a query boundary are returned.
func (r Rect) ContainsClosed(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether r fully contains s.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share any area.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X < s.Max.X && s.Min.X < r.Max.X &&
		r.Min.Y < s.Max.Y && s.Min.Y < r.Max.Y
}

// IntersectsClosed reports rectangle overlap including shared boundaries.
// The spatial indexes use it for pruning: degenerate (zero-area) point
// rectangles and bounds touching a query edge must still count, because
// index searches are closed.
func (r Rect) IntersectsClosed(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// GrowToInclude widens r in place so the closed rectangle covers p. It is
// the shared maintenance step of the lazily-tightened bounding rectangles
// kept by the spatial indexes and the sharded stores.
func (r *Rect) GrowToInclude(p Point) {
	if p.X < r.Min.X {
		r.Min.X = p.X
	}
	if p.Y < r.Min.Y {
		r.Min.Y = p.Y
	}
	if p.X > r.Max.X {
		r.Max.X = p.X
	}
	if p.Y > r.Max.Y {
		r.Max.Y = p.Y
	}
}

// Intersect returns the intersection of r and s; the result may be Empty.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Enlarge grows r by margin on every side. It implements the paper's
// Enlarge(area, reqAcc) used in range-query forwarding (Algorithm 6-5), which
// widens the query area so agents of boundary candidates are not missed.
func (r Rect) Enlarge(margin float64) Rect {
	return Rect{
		Min: Point{r.Min.X - margin, r.Min.Y - margin},
		Max: Point{r.Max.X + margin, r.Max.Y + margin},
	}
}

// ClampPoint returns the point of r closest to p.
func (r Rect) ClampPoint(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// DistToPoint returns the minimum distance from p to r (zero if inside).
func (r Rect) DistToPoint(p Point) float64 { return r.ClampPoint(p).Dist(p) }

// Poly converts r into an equivalent counter-clockwise polygon.
func (r Rect) Poly() Polygon {
	return Polygon{
		{r.Min.X, r.Min.Y},
		{r.Max.X, r.Min.Y},
		{r.Max.X, r.Max.Y},
		{r.Min.X, r.Max.Y},
	}
}

// SplitGrid partitions r into rows × cols equal child rectangles in
// row-major order. It is the service-area partitioning primitive used by the
// hierarchy builder; children tile r exactly (requirement (1) of Section 4)
// and do not overlap under the half-open Contains test (requirement (2)).
func (r Rect) SplitGrid(rows, cols int) []Rect {
	if rows <= 0 || cols <= 0 {
		return nil
	}
	out := make([]Rect, 0, rows*cols)
	w, h := r.Width()/float64(cols), r.Height()/float64(rows)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			minX := r.Min.X + float64(j)*w
			minY := r.Min.Y + float64(i)*h
			maxX := minX + w
			maxY := minY + h
			// Snap outer edges to the parent exactly so the union
			// is the parent area without floating-point slivers.
			if j == cols-1 {
				maxX = r.Max.X
			}
			if i == rows-1 {
				maxY = r.Max.Y
			}
			out = append(out, Rect{Min: Point{minX, minY}, Max: Point{maxX, maxY}})
		}
	}
	return out
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s-%s]", r.Min, r.Max)
}
