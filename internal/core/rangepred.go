package core

import (
	"math"

	"locsvc/internal/geo"
)

// RangePredicate is the range-query predicate of Section 3.2 —
// Overlap(a, o) ≥ reqOverlap > 0 and ld(o).acc ≤ reqAcc — prepared once per
// query and applied to many candidates. Prepare derives the area's
// orientation and, per edge, the inward unit normal, so a candidate's
// location circle is first classified against the edges' half-planes: a
// circle at least its radius inside every edge lies wholly in the area
// (overlap exactly 1), a circle at least its radius beyond one edge lies
// wholly outside (overlap 0), a circle that crosses one edge's line and
// clears every other overlaps by the circular segment that line cuts off
// (one closed-form expression), and only the rest — circles near a vertex,
// and segments within overlapTie of the threshold — pay the exact
// circle∩polygon arithmetic of Area.Overlap. Overlap degrees agree with
// Area.Overlap to within rounding (a contained circle yields exactly 1
// where the exact arithmetic yields 1 − ε), and Qualifies decides exactly
// as Area.RangeQualifies does: where rounding could tip the comparison
// with reqOverlap, the exact arithmetic makes it.
//
// The half-plane classification needs a convex area; for anything else
// (which Area.Valid rejects, but a query may still carry) every circle
// takes the exact path, as before.
//
// A RangePredicate is not safe for concurrent Prepare; concurrent use of a
// prepared one is fine. The zero value qualifies nothing.
type RangePredicate struct {
	area               Area
	reqAcc, reqOverlap float64
	// edges holds the half-planes of a convex area; empty means "no
	// classification, exact arithmetic for everything".
	edges []areaEdge
}

// areaEdge is one edge's supporting line: a point on it and the unit
// normal pointing into the area.
type areaEdge struct {
	a      geo.Point
	nx, ny float64
}

// overlapTie is how close to reqOverlap a closed-form segment share may
// come before the exact arithmetic decides instead. The two differ by
// rounding only (around 1e-16; the tests hold them to 1e-9), but a circle
// centred on a query edge has share 0.5 exactly and 0.49999999999999989 by
// Area.Overlap, and 0.5 is the threshold every client asks for.
const overlapTie = 1e-9

// pointMargin is how far (in meters) a perfectly accurate position must be
// from every edge for the half-plane test alone to decide containment;
// closer to the border, Polygon.Contains' boundary tolerance decides.
const pointMargin = 1e-6

// Prepare compiles the predicate for area a and the two thresholds,
// reusing the receiver's storage.
func (p *RangePredicate) Prepare(a Area, reqAcc, reqOverlap float64) {
	p.area, p.reqAcc, p.reqOverlap = a, reqAcc, reqOverlap
	p.edges = p.edges[:0]
	vs := a.Vertices
	signed := vs.SignedArea()
	if signed == 0 || !vs.IsConvex() {
		return
	}
	// Inward is to the left of a counter-clockwise edge, to the right of
	// a clockwise one.
	sign := 1.0
	if signed < 0 {
		sign = -1
	}
	for i, v := range vs {
		w := vs[(i+1)%len(vs)]
		dx, dy := w.X-v.X, w.Y-v.Y
		l := math.Hypot(dx, dy)
		if l == 0 {
			continue // repeated vertex: no half-plane of its own
		}
		p.edges = append(p.edges, areaEdge{a: v, nx: -sign * dy / l, ny: sign * dx / l})
	}
}

// circleClass is how a location circle lies relative to the area.
type circleClass uint8

const (
	// circleStraddles: the circle crosses the border somewhere the
	// half-planes alone cannot resolve (near a vertex, or no half-planes).
	circleStraddles circleClass = iota
	circleInside
	circleOutside
	// circleCrossesOne: the circle crosses exactly one edge's line and is
	// at least its radius inside every other, so its share inside the
	// area is the circular segment that one line cuts off.
	circleCrossesOne
)

// classify places the circle of radius r ≥ 0 around c relative to the
// area, looking only at the edges' half-planes. margin widens the
// straddling band on both sides. For circleCrossesOne, d is the signed
// distance of c from the crossed line (positive inside).
func (p *RangePredicate) classify(c geo.Point, r, margin float64) (class circleClass, d float64) {
	if len(p.edges) == 0 {
		return circleStraddles, 0
	}
	crossed := 0
	for i := range p.edges {
		e := &p.edges[i]
		di := (c.X-e.a.X)*e.nx + (c.Y-e.a.Y)*e.ny
		if di <= -r-margin {
			return circleOutside, 0
		}
		if di < r+margin {
			crossed++
			d = di
		}
	}
	switch crossed {
	case 0:
		return circleInside, 0
	case 1:
		return circleCrossesOne, d
	}
	return circleStraddles, 0
}

// segmentShare returns the share of a disk's area on the inner side of a
// line at signed distance t radii from its centre, −1 < t < 1.
func segmentShare(t float64) float64 {
	return (math.Acos(-t) + t*math.Sqrt((1-t)*(1+t))) / math.Pi
}

// overlap returns the overlap degree of ld with the area and whether the
// exact circle∩polygon arithmetic was needed to get it.
func (p *RangePredicate) overlap(ld LocationDescriptor) (ov float64, exact bool) {
	if ld.Acc <= 0 {
		// A point is in or out; near the border Contains decides, with
		// its boundary tolerance.
		switch class, _ := p.classify(ld.Pos, 0, pointMargin); class {
		case circleInside:
			return 1, false
		case circleOutside:
			return 0, false
		}
		return p.area.Overlap(ld), false
	}
	switch class, d := p.classify(ld.Pos, ld.Acc, 0); class {
	case circleInside:
		return 1, false
	case circleOutside:
		return 0, false
	case circleCrossesOne:
		if ov := segmentShare(d / ld.Acc); math.Abs(ov-p.reqOverlap) > overlapTie {
			return ov, false
		}
	}
	return p.area.Overlap(ld), true
}

// Qualifies applies the predicate to one location descriptor, like
// Area.RangeQualifies. exact reports whether the decision needed the exact
// overlap arithmetic (the circle straddles the area's border).
func (p *RangePredicate) Qualifies(ld LocationDescriptor) (ok, exact bool) {
	if p.reqOverlap <= 0 || p.reqOverlap > 1 || ld.Acc > p.reqAcc {
		return false, false
	}
	ov, exact := p.overlap(ld)
	return ov >= p.reqOverlap, exact
}
