package geo

import "math"

// Circle is a disk of radius R centered at C. A tracked object's location
// area (Fig. 2 of the paper) is the circle around the stored position with
// the accuracy value as radius: the object is guaranteed to be inside it.
type Circle struct {
	C Point
	R float64
}

// Area returns the area of the disk.
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// Contains reports whether p lies in the closed disk.
func (c Circle) Contains(p Point) bool { return c.C.Dist2(p) <= c.R*c.R+1e-12 }

// Bounds returns the axis-aligned bounding rectangle of the disk.
func (c Circle) Bounds() Rect {
	return Rect{
		Min: Point{c.C.X - c.R, c.C.Y - c.R},
		Max: Point{c.C.X + c.R, c.C.Y + c.R},
	}
}

// IntersectsRect reports whether the disk and rectangle share any area.
func (c Circle) IntersectsRect(r Rect) bool { return r.DistToPoint(c.C) <= c.R }

// IntersectPolyArea returns the exact area of the intersection of the disk
// with a simple polygon. This is SIZE(a ∩ ld(o)) in the paper's overlap
// definition (Section 3.2):
//
//	Overlap(a, o) = SIZE(a ∩ ld(o)) / SIZE(ld(o))
//
// The algorithm sums, for every directed polygon edge (v1, v2), the signed
// area of the intersection of the triangle (C, v1, v2) with the disk; for a
// simple polygon the contributions of edges seen "backwards" cancel exactly,
// leaving the intersection area. Each triangle/disk piece is a combination
// of straight triangles and circular sectors.
func (c Circle) IntersectPolyArea(pg Polygon) float64 {
	if len(pg) < 3 || c.R <= 0 {
		return 0
	}
	total := 0.0
	for i, v1 := range pg {
		v2 := pg[(i+1)%len(pg)]
		total += c.edgeContribution(v1, v2)
	}
	return math.Abs(total)
}

// edgeContribution returns the signed area of triangle (c.C, v1, v2)
// clipped to the disk.
func (c Circle) edgeContribution(v1, v2 Point) float64 {
	a := v1.Sub(c.C)
	b := v2.Sub(c.C)
	r2 := c.R * c.R
	aIn := a.Norm2() <= r2
	bIn := b.Norm2() <= r2

	cross := a.Cross(b)
	if aIn && bIn {
		// Whole triangle inside the disk.
		return cross / 2
	}

	// Find intersections of segment a-b (in circle-centered coordinates)
	// with the circle of radius R.
	d := b.Sub(a)
	dd := d.Norm2()
	if dd == 0 {
		return 0
	}
	// Solve |a + t d|^2 = r^2 for t in [0,1].
	proj := -a.Dot(d) / dd
	disc := proj*proj - (a.Norm2()-r2)/dd
	if disc <= 0 {
		// Segment entirely outside: contribution is the circular
		// sector between directions a and b.
		return c.sectorArea(a, b)
	}
	sq := math.Sqrt(disc)
	t1 := proj - sq
	t2 := proj + sq

	switch {
	case aIn && !bIn:
		// Exits the disk at t2: triangle part up to the exit point,
		// then a sector from the exit direction to b.
		x := a.Add(d.Scale(clamp01(t2)))
		return a.Cross(x)/2 + c.sectorArea(x, b)
	case !aIn && bIn:
		// Enters the disk at t1: sector from a to the entry point,
		// then triangle from entry to b.
		x := a.Add(d.Scale(clamp01(t1)))
		return c.sectorArea(a, x) + x.Cross(b)/2
	default:
		// Both endpoints outside. The chord may still pass through
		// the disk if t1, t2 lie within (0,1).
		if t1 >= 1 || t2 <= 0 {
			return c.sectorArea(a, b)
		}
		x1 := a.Add(d.Scale(clamp01(t1)))
		x2 := a.Add(d.Scale(clamp01(t2)))
		return c.sectorArea(a, x1) + x1.Cross(x2)/2 + c.sectorArea(x2, b)
	}
}

// sectorArea returns the signed area of the circular sector of the disk
// swept from direction u to direction v (both relative to the center),
// following the orientation of the angle between them.
func (c Circle) sectorArea(u, v Point) float64 {
	ang := math.Atan2(u.Cross(v), u.Dot(v))
	return 0.5 * c.R * c.R * ang
}

func clamp01(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// IntersectRectArea returns the exact area of the intersection of the disk
// with rectangle r, with fast paths for the disjoint and fully-contained
// cases.
func (c Circle) IntersectRectArea(r Rect) float64 {
	if !c.IntersectsRect(r) {
		return 0
	}
	// Fast path: rectangle's farthest corner inside the disk means the
	// rectangle is fully covered.
	if c.coversRect(r) {
		return r.Area()
	}
	// Fast path: disk fully inside the rectangle.
	if r.ContainsRect(c.Bounds()) {
		return c.Area()
	}
	return c.IntersectPolyArea(r.Poly())
}

// coversRect reports whether the disk fully contains rectangle r.
func (c Circle) coversRect(r Rect) bool {
	// The corner farthest from the centre decides, and it is the one
	// farthest along each axis.
	dx := math.Max(math.Abs(r.Min.X-c.C.X), math.Abs(r.Max.X-c.C.X))
	dy := math.Max(math.Abs(r.Min.Y-c.C.Y), math.Abs(r.Max.Y-c.C.Y))
	return dx*dx+dy*dy <= c.R*c.R+1e-12
}
