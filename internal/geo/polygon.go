package geo

import "math"

// Polygon is a simple polygon given by its vertices in order. The paper
// allows a query or service area to be "an arbitrary connected polygon given
// by the geographic coordinates of its corners"; we support simple polygons
// for containment and area, and convex polygons for clipping.
type Polygon []Point

// Area returns the unsigned area of the polygon (shoelace formula).
func (pg Polygon) Area() float64 { return math.Abs(pg.SignedArea()) }

// SignedArea returns the signed area: positive for counter-clockwise vertex
// order, negative for clockwise.
func (pg Polygon) SignedArea() float64 {
	if len(pg) < 3 {
		return 0
	}
	sum := 0.0
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		sum += p.Cross(q)
	}
	return sum / 2
}

// CCW returns the polygon in counter-clockwise orientation, reversing the
// vertex order if necessary.
func (pg Polygon) CCW() Polygon {
	if pg.SignedArea() >= 0 {
		return pg
	}
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[len(pg)-1-i] = p
	}
	return out
}

// Contains reports whether p lies inside the polygon (boundary counts as
// inside), using the ray-crossing test. Works for arbitrary simple polygons.
func (pg Polygon) Contains(p Point) bool {
	if len(pg) < 3 {
		return false
	}
	inside := false
	for i, a := range pg {
		b := pg[(i+1)%len(pg)]
		// Boundary check: p on segment a-b.
		if onSegment(a, b, p) {
			return true
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// onSegment reports whether p lies on the closed segment a-b.
func onSegment(a, b, p Point) bool {
	const eps = 1e-9
	if math.Abs(b.Sub(a).Cross(p.Sub(a))) > eps*(1+a.Dist(b)) {
		return false
	}
	return p.X >= math.Min(a.X, b.X)-eps && p.X <= math.Max(a.X, b.X)+eps &&
		p.Y >= math.Min(a.Y, b.Y)-eps && p.Y <= math.Max(a.Y, b.Y)+eps
}

// Bounds returns the axis-aligned bounding rectangle of the polygon.
func (pg Polygon) Bounds() Rect {
	if len(pg) == 0 {
		return Rect{}
	}
	r := Rect{Min: pg[0], Max: pg[0]}
	for _, p := range pg[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// ClipRect clips the polygon to an axis-aligned rectangle using the
// Sutherland–Hodgman algorithm. The input must be convex for the output to
// be exact; rectangles and the convex query areas used throughout the
// service satisfy this. The result is the intersection polygon (possibly
// empty).
func (pg Polygon) ClipRect(r Rect) Polygon {
	out := pg.CCW()
	// Clip against each of the four half-planes of r.
	out = clipHalfPlane(out, func(p Point) bool { return p.X >= r.Min.X }, func(a, b Point) Point {
		t := (r.Min.X - a.X) / (b.X - a.X)
		return a.Lerp(b, t)
	})
	out = clipHalfPlane(out, func(p Point) bool { return p.X <= r.Max.X }, func(a, b Point) Point {
		t := (r.Max.X - a.X) / (b.X - a.X)
		return a.Lerp(b, t)
	})
	out = clipHalfPlane(out, func(p Point) bool { return p.Y >= r.Min.Y }, func(a, b Point) Point {
		t := (r.Min.Y - a.Y) / (b.Y - a.Y)
		return a.Lerp(b, t)
	})
	out = clipHalfPlane(out, func(p Point) bool { return p.Y <= r.Max.Y }, func(a, b Point) Point {
		t := (r.Max.Y - a.Y) / (b.Y - a.Y)
		return a.Lerp(b, t)
	})
	return out
}

// clipHalfPlane clips polygon vertices against one half-plane; inside
// reports whether a point is kept and cross computes the boundary crossing.
func clipHalfPlane(pg Polygon, inside func(Point) bool, cross func(a, b Point) Point) Polygon {
	if len(pg) == 0 {
		return nil
	}
	out := make(Polygon, 0, len(pg)+4)
	for i, cur := range pg {
		prev := pg[(i+len(pg)-1)%len(pg)]
		curIn, prevIn := inside(cur), inside(prev)
		switch {
		case curIn && prevIn:
			out = append(out, cur)
		case curIn && !prevIn:
			out = append(out, cross(prev, cur), cur)
		case !curIn && prevIn:
			out = append(out, cross(prev, cur))
		}
	}
	if len(out) < 3 {
		return nil
	}
	return out
}

// IntersectRectArea returns the area of the intersection of the polygon
// (assumed convex) with rectangle r.
func (pg Polygon) IntersectRectArea(r Rect) float64 {
	return pg.ClipRect(r).Area()
}
