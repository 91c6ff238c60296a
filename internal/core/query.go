package core

import (
	"cmp"
	"slices"

	"locsvc/internal/geo"
)

// Area is a query or service area: a convex polygon in the service plane.
// The paper allows areas to be arbitrary connected polygons; this
// implementation supports convex polygons (rectangles being the common
// case), which is sufficient for all of the paper's workloads and keeps
// the exact clipping arithmetic simple.
type Area struct {
	Vertices geo.Polygon
}

// AreaFromRect converts an axis-aligned rectangle into an Area.
func AreaFromRect(r geo.Rect) Area { return Area{Vertices: r.Poly()} }

// AreaFromPoints builds the convex query area spanned by arbitrary corner
// points (their convex hull). It is the bridge between the paper's
// "arbitrary connected polygon given by the geographic coordinates of its
// corners" and the convex areas the exact overlap arithmetic supports:
// non-convex corner sets are widened to their hull.
func AreaFromPoints(points []geo.Point) Area {
	return Area{Vertices: geo.ConvexHull(points)}
}

// Valid reports whether the area is usable for queries: at least a
// triangle, and convex.
func (a Area) Valid() bool {
	return len(a.Vertices) >= 3 && a.Vertices.IsConvex()
}

// Bounds returns the bounding rectangle of the area.
func (a Area) Bounds() geo.Rect { return a.Vertices.Bounds() }

// Size returns the area measure (the paper's SIZE function).
func (a Area) Size() float64 { return a.Vertices.Area() }

// Empty reports whether the area encloses nothing.
func (a Area) Empty() bool { return a.Size() <= 0 }

// Contains reports whether p lies inside the area.
func (a Area) Contains(p geo.Point) bool { return a.Vertices.Contains(p) }

// Overlap computes the paper's overlap degree (Section 3.2):
//
//	Overlap(a, o) = SIZE(a ∩ ld(o)) / SIZE(ld(o))
//
// where ld(o) is interpreted as the circular location area of the object.
// For a perfectly accurate descriptor (Acc == 0) the location area is a
// point and the overlap degree is 1 if the point lies in the area and 0
// otherwise; this is the natural limit of the ratio and means exact
// positions always qualify when inside.
func (a Area) Overlap(ld LocationDescriptor) float64 {
	if ld.Acc <= 0 {
		if a.Contains(ld.Pos) {
			return 1
		}
		return 0
	}
	circ := ld.Area()
	inter := circ.IntersectPolyArea(a.Vertices)
	ov := inter / circ.Area()
	if ov > 1 {
		ov = 1
	}
	return ov
}

// RangeQualifies applies the full range-query predicate of Section 3.2:
// the object qualifies iff Overlap(a, o) ≥ reqOverlap > 0 and
// ld(o).acc ≤ reqAcc.
func (a Area) RangeQualifies(ld LocationDescriptor, reqAcc, reqOverlap float64) bool {
	if reqOverlap <= 0 || reqOverlap > 1 {
		return false
	}
	if ld.Acc > reqAcc {
		return false
	}
	return a.Overlap(ld) >= reqOverlap
}

// NearestResult is the outcome of the nearest-neighbor selection rule.
type NearestResult struct {
	// Nearest is the object whose recorded position minimizes the
	// distance to the query position among objects meeting the accuracy
	// threshold.
	Nearest Entry
	// Near contains the other objects within nearQual of the nearest
	// object's distance (the paper's nearObjSet).
	Near []Entry
	// GuaranteedMinDist is a lower bound for the distance from the query
	// position to any qualifying object's true position:
	// DISTANCE(ld(o).pos, p) − reqAcc, clamped at zero.
	GuaranteedMinDist float64
	// Found reports whether any object met the accuracy threshold.
	Found bool
}

// SelectNearest applies the nearest-neighbor semantics of Section 3.2 to a
// candidate set given in parts, read where they lie: objects whose
// accuracy is worse than reqAcc are discarded; the remaining object with
// minimal recorded distance to p is returned, together with nearObjSet —
// every other candidate o' with DISTANCE(ld(o').pos, p) ≤
// DISTANCE(ld(o).pos, p) + nearQual.
//
// Ties on distance are broken by object id so the result is deterministic
// across servers and runs. One pass finds the nearest distance; only the
// candidates within nearQual of it are copied and sorted, so the result
// holds nothing of the parts.
func SelectNearest(p geo.Point, reqAcc, nearQual float64, parts ...[]Entry) NearestResult {
	dist, found := 0.0, false
	for _, part := range parts {
		for i := range part {
			if e := &part[i]; e.LD.Acc <= reqAcc {
				if d := e.LD.Pos.Dist(p); !found || d < dist {
					dist, found = d, true
				}
			}
		}
	}
	if !found {
		return NearestResult{}
	}
	limit := dist + nearQual
	var sel []Entry
	for _, part := range parts {
		for i := range part {
			if e := &part[i]; e.LD.Acc <= reqAcc && e.LD.Pos.Dist(p) <= limit {
				sel = append(sel, *e)
			}
		}
	}
	slices.SortFunc(sel, func(a, b Entry) int {
		if c := cmp.Compare(a.LD.Pos.Dist(p), b.LD.Pos.Dist(p)); c != 0 {
			return c
		}
		return cmp.Compare(a.OID, b.OID)
	})
	res := NearestResult{Nearest: sel[0], Found: true}
	if len(sel) > 1 {
		res.Near = sel[1:]
	}
	if g := dist - reqAcc; g > 0 {
		res.GuaranteedMinDist = g
	}
	return res
}
