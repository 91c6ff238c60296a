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
// Bounds is the predicate's filter rectangle: the closed rectangle outside
// which no position qualifies, so an index search over it sees every
// candidate that can qualify. Below a reqOverlap of 0.5 it is the area's
// bounds enlarged by reqAcc — a circle centred outside the area can still
// overlap it enough. From 0.5 on it is the area's bounds themselves, grown
// only by a rounding margin: the area lies in its bounding box, a convex
// set, so a line through a centre outside the box keeps the whole box on
// one side and the circle's overlap with the area stays below one half.
//
// A RangePredicate is not safe for concurrent Prepare; concurrent use of a
// prepared one is fine. The zero value qualifies nothing.
type RangePredicate struct {
	area               Area
	reqAcc, reqOverlap float64
	// edges holds the half-planes of a convex area; empty means "no
	// classification, exact arithmetic for everything".
	edges []areaEdge
	// bounds is the filter rectangle Bounds returns.
	bounds geo.Rect
}

// areaEdge is one edge's supporting line: a point on it and the unit
// normal pointing into the area.
type areaEdge struct {
	a      geo.Point
	nx, ny float64
}

// dist returns the signed distance of c from the edge's line, positive
// inside. The conversions round each product before the sum (no fused
// multiply-add), so the result is the same wherever it is computed and,
// rounding being monotone, non-decreasing along the normal in each
// coordinate: over a rectangle it is smallest at the corner the normal
// points away from.
func (e *areaEdge) dist(c geo.Point) float64 {
	return float64((c.X-e.a.X)*e.nx) + float64((c.Y-e.a.Y)*e.ny)
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

// boundsMargin is how far beyond the area's bounding box a position that
// qualifies for a reqOverlap ≥ 0.5 can lie: only by rounding. A point
// (accuracy 0) qualifies through Polygon.Contains, whose boundary
// tolerance pointMargin covers. A circle of radius r ≤ reqAcc centred δ
// beyond the box overlaps the area by at most the share of its disk
// beyond a line at distance δ from its centre, which is below
// 1/2 − δ/(2r) for δ ≤ r/2 (and below 0.2 farther out). The overlap
// arithmetic errs by less than overlapTie relative to the circle, plus
// the rounding of its coordinates, which pointMargin also absorbs, so the
// circle reaches 0.5 only when δ < 2·overlapTie·r + pointMargin.
func boundsMargin(reqAcc float64) float64 {
	return pointMargin + 2*overlapTie*reqAcc
}

// Prepare compiles the predicate for area a and the two thresholds,
// reusing the receiver's storage.
func (p *RangePredicate) Prepare(a Area, reqAcc, reqOverlap float64) {
	p.area, p.reqAcc, p.reqOverlap = a, reqAcc, reqOverlap
	p.edges = p.edges[:0]
	if reqOverlap >= 0.5 {
		p.bounds = a.Bounds().Enlarge(boundsMargin(reqAcc))
	} else {
		p.bounds = a.Bounds().Enlarge(reqAcc)
	}
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
		di := p.edges[i].dist(c)
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

// Interior is the bucket-level verdict: it reports whether every location
// descriptor centred in the closed rectangle sub with an accuracy of at
// most reqAcc qualifies, because each lies at least max(reqAcc,
// pointMargin) inside every edge's half-plane. Qualifies classifies such a
// descriptor as inside the area (overlap 1), needing no exact arithmetic,
// so a consumer may qualify a whole bucket in sub on the accuracy test
// alone. Per edge only the corner of sub nearest its line is tested:
// edge distances are computed monotonically (areaEdge.dist), so no point
// of sub, rounded as Qualifies rounds it, comes closer. A non-convex
// area, and thresholds Qualifies rejects outright, have no interior.
func (p *RangePredicate) Interior(sub geo.Rect) bool {
	if len(p.edges) == 0 || p.reqOverlap <= 0 || p.reqOverlap > 1 {
		return false
	}
	need := max(p.reqAcc, pointMargin)
	for i := range p.edges {
		e := &p.edges[i]
		c := sub.Min
		if e.nx < 0 {
			c.X = sub.Max.X
		}
		if e.ny < 0 {
			c.Y = sub.Max.Y
		}
		if !(e.dist(c) >= need) {
			return false
		}
	}
	return true
}

// Bounds returns the closed rectangle outside which no location
// descriptor's position qualifies (see the type's comment).
func (p *RangePredicate) Bounds() geo.Rect { return p.bounds }

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
