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

// IntersectRectArea returns the area of the intersection of the polygon
// (assumed convex, in either orientation) with rectangle r. It is Sutherland
// and Hodgman's re-entrant clipper (CACM 1974): the vertices pass one at a
// time through four stages, one per edge of r, each holding only its first
// and last vertex, and each vertex leaving the last stage adds its term to
// the shoelace sum. The clipped polygon is never stored, so nothing is
// allocated whatever the vertex count.
func (pg Polygon) IntersectRectArea(r Rect) float64 {
	if len(pg) < 3 {
		return 0
	}
	c := rectClipper{r: r}
	for _, p := range pg {
		c.push(0, p)
	}
	// Close the polygon stage by stage: each stage's closing edge may
	// pass vertices on to the next before that one closes.
	for k := 0; k < len(c.stages)-1; k++ {
		if s := &c.stages[k]; s.started {
			c.edge(k, s.last, s.first)
		}
	}
	if out := &c.stages[len(c.stages)-1]; out.started {
		c.sum += out.last.Cross(out.first)
	}
	return math.Abs(c.sum) / 2
}

// rectClipper is IntersectRectArea's pipeline. Stages 0-3 clip against
// x >= r.Min.X, x <= r.Max.X, y >= r.Min.Y and y <= r.Max.Y; stage 4
// receives the clipped polygon's vertices and sums their shoelace terms.
type rectClipper struct {
	r      Rect
	stages [5]clipStage
	sum    float64
}

// clipStage is what a stage remembers of the vertices it received.
type clipStage struct {
	first, last Point
	started     bool
}

// side returns how far p lies inside stage k's half-plane; p is kept when
// it is not negative.
func (c *rectClipper) side(k int, p Point) float64 {
	switch k {
	case 0:
		return p.X - c.r.Min.X
	case 1:
		return c.r.Max.X - p.X
	case 2:
		return p.Y - c.r.Min.Y
	default:
		return c.r.Max.Y - p.Y
	}
}

// push hands vertex p to stage k.
func (c *rectClipper) push(k int, p Point) {
	s := &c.stages[k]
	switch {
	case !s.started:
		s.first, s.started = p, true
	case k == len(c.stages)-1:
		c.sum += s.last.Cross(p)
	default:
		c.edge(k, s.last, p)
	}
	s.last = p
}

// edge clips the edge a→b at stage k and hands the next stage what is
// kept: the crossing where the edge enters or leaves, and b if inside.
func (c *rectClipper) edge(k int, a, b Point) {
	da, db := c.side(k, a), c.side(k, b)
	if (da >= 0) != (db >= 0) {
		c.push(k+1, a.Lerp(b, da/(da-db)))
	}
	if db >= 0 {
		c.push(k+1, b)
	}
}
