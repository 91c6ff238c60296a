package core

import (
	"math"
	"math/rand"
	"testing"

	"locsvc/internal/geo"
)

// overlapTol is how far the prepared predicate's overlap degree may sit
// from Area.Overlap's: the two differ only by the exact arithmetic's own
// rounding.
const overlapTol = 1e-9

func reversed(pg geo.Polygon) geo.Polygon {
	out := make(geo.Polygon, len(pg))
	for i, p := range pg {
		out[len(pg)-1-i] = p
	}
	return out
}

// randomConvexAreas returns convex query areas of every shape the predicate
// classifies against: rectangles, hulls of random point clouds, slivers (a
// thin rotated band), each in both orientations.
func randomConvexAreas(rng *rand.Rand, n int) []Area {
	var out []Area
	add := func(pg geo.Polygon) {
		if a := (Area{Vertices: pg}); a.Valid() && a.Size() > 1e-3 {
			out = append(out, a, Area{Vertices: reversed(pg)})
		}
	}
	for i := 0; i < n; i++ {
		cx, cy := rng.Float64()*2000-1000, rng.Float64()*2000-1000
		switch i % 3 {
		case 0:
			add(geo.R(cx, cy, cx+1+rng.Float64()*400, cy+1+rng.Float64()*400).Poly())
		case 1:
			pts := make([]geo.Point, 3+rng.Intn(12))
			spread := 5 + rng.Float64()*300
			for k := range pts {
				pts[k] = geo.Pt(cx+rng.NormFloat64()*spread, cy+rng.NormFloat64()*spread)
			}
			add(geo.ConvexHull(pts))
		case 2:
			// Sliver: long along a random direction, 1 cm to 1 m wide.
			ang := rng.Float64() * math.Pi
			ux, uy := math.Cos(ang), math.Sin(ang)
			length, width := 50+rng.Float64()*500, 0.01+rng.Float64()
			pts := make([]geo.Point, 4+rng.Intn(6))
			for k := range pts {
				along, across := rng.Float64()*length, rng.Float64()*width
				pts[k] = geo.Pt(cx+ux*along-uy*across, cy+uy*along+ux*across)
			}
			add(geo.ConvexHull(pts))
		}
	}
	return out
}

// checkAgainstExact compares the prepared predicate with the unprepared
// path for one (area, descriptor) pair at several thresholds.
func checkAgainstExact(t *testing.T, a Area, ld LocationDescriptor) {
	t.Helper()
	var pred RangePredicate
	pred.Prepare(a, math.Inf(1), 0.5)
	want := a.Overlap(ld)
	got, _ := pred.overlap(ld)
	if math.Abs(got-want) > overlapTol {
		t.Fatalf("overlap %v, exact %v (diff %g)\narea %v\nld %+v", got, want, got-want, a.Vertices, ld)
	}
	if ld.Acc > 0 {
		// The classification alone must agree with the exact ratio.
		switch class, _ := pred.classify(ld.Pos, ld.Acc, 0); class {
		case circleInside:
			if want < 1-overlapTol {
				t.Fatalf("classified inside, exact overlap %v\narea %v\nld %+v", want, a.Vertices, ld)
			}
		case circleOutside:
			if want > overlapTol {
				t.Fatalf("classified outside, exact overlap %v\narea %v\nld %+v", want, a.Vertices, ld)
			}
		}
	}
	for _, reqOverlap := range []float64{1e-9, 0.1, 0.5, 0.9, 1} {
		if math.Abs(want-reqOverlap) <= overlapTol {
			continue // too close to call: either decision is right
		}
		for _, reqAcc := range []float64{ld.Acc / 2, ld.Acc, ld.Acc + 1} {
			pred.Prepare(a, reqAcc, reqOverlap)
			ok, _ := pred.Qualifies(ld)
			if exp := a.RangeQualifies(ld, reqAcc, reqOverlap); ok != exp {
				t.Fatalf("Qualifies = %v, RangeQualifies = %v at reqAcc %v reqOverlap %v (exact overlap %v)\narea %v\nld %+v",
					ok, exp, reqAcc, reqOverlap, want, a.Vertices, ld)
			}
		}
	}
}

func TestRangePredicateMatchesExactOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, a := range randomConvexAreas(rng, 150) {
		b := a.Bounds()
		span := math.Max(b.Width(), b.Height())
		for i := 0; i < 120; i++ {
			// Centres in and around the area, radii from a fraction of
			// a sliver's width to several times the area.
			ld := LocationDescriptor{
				Pos: geo.Pt(b.Min.X-span/2+rng.Float64()*(b.Width()+span), b.Min.Y-span/2+rng.Float64()*(b.Height()+span)),
				Acc: math.Exp(rng.Float64()*math.Log(3*span+1)) - 1 + 1e-3,
			}
			if i%10 == 0 {
				ld.Acc = 0
			}
			checkAgainstExact(t, a, ld)
		}
	}
}

func TestRangePredicateDirectedCases(t *testing.T) {
	sq := geo.R(0, 0, 100, 100).Poly()
	tri := geo.Polygon{geo.Pt(0, 0), geo.Pt(200, 0), geo.Pt(0, 100)}
	cases := []struct {
		name string
		pg   geo.Polygon
		ld   LocationDescriptor
	}{
		{"tangent from inside", sq, LocationDescriptor{Pos: geo.Pt(10, 50), Acc: 10}},
		{"tangent from outside", sq, LocationDescriptor{Pos: geo.Pt(-10, 50), Acc: 10}},
		{"tangent to two edges inside", sq, LocationDescriptor{Pos: geo.Pt(10, 10), Acc: 10}},
		{"tangent to the hypotenuse", tri, LocationDescriptor{Pos: geo.Pt(40, 30), Acc: math.Abs(100*40+200*30-20000) / math.Hypot(100, 200)}},
		{"centre on an edge", sq, LocationDescriptor{Pos: geo.Pt(0, 50), Acc: 10}},
		{"centre on the hypotenuse", tri, LocationDescriptor{Pos: geo.Pt(100, 50), Acc: 7}},
		{"centre on a vertex", sq, LocationDescriptor{Pos: geo.Pt(100, 100), Acc: 10}},
		{"centre on an acute vertex", tri, LocationDescriptor{Pos: geo.Pt(200, 0), Acc: 25}},
		{"point inside", sq, LocationDescriptor{Pos: geo.Pt(50, 50)}},
		{"point on an edge", sq, LocationDescriptor{Pos: geo.Pt(0, 50)}},
		{"point on the hypotenuse", tri, LocationDescriptor{Pos: geo.Pt(100, 50)}},
		{"point on a vertex", sq, LocationDescriptor{Pos: geo.Pt(100, 0)}},
		{"point just outside", sq, LocationDescriptor{Pos: geo.Pt(-1e-3, 50)}},
		{"point far outside", sq, LocationDescriptor{Pos: geo.Pt(500, 500)}},
		{"circle containing the polygon", sq, LocationDescriptor{Pos: geo.Pt(50, 50), Acc: 500}},
		{"circle containing the polygon, off centre", tri, LocationDescriptor{Pos: geo.Pt(-50, -50), Acc: 400}},
		{"circle through the polygon", sq, LocationDescriptor{Pos: geo.Pt(50, -200), Acc: 260}},
		{"fully inside", sq, LocationDescriptor{Pos: geo.Pt(50, 50), Acc: 10}},
		{"fully outside", sq, LocationDescriptor{Pos: geo.Pt(200, 200), Acc: 10}},
		{"outside past a vertex", sq, LocationDescriptor{Pos: geo.Pt(-8, -8), Acc: 10}},
	}
	for _, tc := range cases {
		for _, pg := range []geo.Polygon{tc.pg, reversed(tc.pg)} {
			pg, tc := pg, tc
			t.Run(tc.name, func(t *testing.T) { checkAgainstExact(t, Area{Vertices: pg}, tc.ld) })
		}
	}
}

// TestRangePredicateThresholdTies: where the closed-form segment share lands
// on reqOverlap, the predicate must decide as Area.RangeQualifies does, not
// as its own rounding happens to fall. A circle centred on an edge is the
// case that occurs: its share is 0.5 exactly, the exact arithmetic's a few
// ulps either side, and 0.5 is the usual threshold. The first case is the
// range query that failed the benchmark's answer check (city_queries,
// seed 4): the object sits on the query rectangle's top edge.
func TestRangePredicateThresholdTies(t *testing.T) {
	check := func(a Area, ld LocationDescriptor) {
		t.Helper()
		var pred RangePredicate
		pred.Prepare(a, ld.Acc, 0.5)
		ok, exact := pred.Qualifies(ld)
		if want := a.RangeQualifies(ld, ld.Acc, 0.5); ok != want {
			t.Errorf("Qualifies = %v (exact %v), RangeQualifies = %v; exact overlap %.17g\narea %v\nld %+v",
				ok, exact, want, a.Overlap(ld), a.Vertices, ld)
		}
	}
	check(AreaFromRect(geo.R(5569.313296874293, 596.0458984375, 6569.313296874293, 1596.0458984375)),
		LocationDescriptor{Pos: geo.Pt(6314.59765625, 1596.0458984375), Acc: 10})

	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		// Bench-like coordinates: rectangles anywhere in a 10 km city,
		// positions on the 1/1024 m grid.
		x0, y0 := rng.Float64()*9000, math.Round(rng.Float64()*9000*1024)/1024
		w, h := 100+rng.Float64()*1000, 100+math.Round(rng.Float64()*1000*1024)/1024
		r := geo.R(x0, y0, x0+w, y0+h)
		for _, pg := range []geo.Polygon{r.Poly(), reversed(r.Poly())} {
			a := Area{Vertices: pg}
			for _, acc := range []float64{0.5, 3, 10, 25, 50} {
				along := 0.1 + 0.8*rng.Float64()
				for _, c := range []geo.Point{
					geo.Pt(x0+along*w, y0),   // bottom
					geo.Pt(x0+along*w, y0+h), // top
					geo.Pt(x0, y0+along*h),   // left
					geo.Pt(x0+w, y0+along*h), // right
				} {
					check(a, LocationDescriptor{Pos: c, Acc: acc})
					// And a hair to either side of the edge.
					for _, off := range []float64{-1e-9, 1e-9, -1e-12, 1e-12} {
						check(a, LocationDescriptor{Pos: geo.Pt(c.X+off*acc, c.Y+off*acc), Acc: acc})
					}
				}
			}
		}
	}
}

// TestRangePredicateContainedCircleQualifiesAtFullOverlap pins the one
// deliberate difference from the exact arithmetic: a wholly contained
// circle has overlap exactly 1, where circle∩polygon / circle can round to
// 0.999….
func TestRangePredicateContainedCircleQualifiesAtFullOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pred RangePredicate
	for _, a := range randomConvexAreas(rng, 60) {
		pred.Prepare(a, 1000, 1)
		// The mean of the vertices lies inside every convex polygon.
		var c geo.Point
		for _, v := range a.Vertices {
			c = c.Add(v)
		}
		c = c.Scale(1 / float64(len(a.Vertices)))
		// The largest circle around that point that stays inside.
		r := math.Inf(1)
		for i := range pred.edges {
			e := &pred.edges[i]
			r = math.Min(r, (c.X-e.a.X)*e.nx+(c.Y-e.a.Y)*e.ny)
		}
		for _, ld := range []LocationDescriptor{{Pos: c, Acc: r}, {Pos: c, Acc: r / 3}} {
			if ov, _ := pred.overlap(ld); ov != 1 {
				t.Fatalf("contained circle overlap = %v, want exactly 1\narea %v\nld %+v", ov, a.Vertices, ld)
			}
			if ok, exact := pred.Qualifies(ld); !ok || exact {
				t.Fatalf("contained circle: Qualifies = %v (exact %v), want true without exact arithmetic", ok, exact)
			}
		}
	}
}

// TestRangePredicateUnclassifiableAreas: areas the half-plane test cannot
// handle fall back to the exact arithmetic for every circle.
func TestRangePredicateUnclassifiableAreas(t *testing.T) {
	lShape := geo.Polygon{geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(100, 40), geo.Pt(40, 40), geo.Pt(40, 100), geo.Pt(0, 100)}
	rng := rand.New(rand.NewSource(9))
	for _, pg := range []geo.Polygon{lShape, reversed(lShape), nil, {geo.Pt(0, 0), geo.Pt(10, 10)}, {geo.Pt(0, 0), geo.Pt(5, 5), geo.Pt(10, 10)}} {
		a := Area{Vertices: pg}
		var pred RangePredicate
		pred.Prepare(a, 100, 0.5)
		if len(pred.edges) != 0 {
			t.Fatalf("area %v got half-planes", pg)
		}
		for i := 0; i < 200; i++ {
			ld := LocationDescriptor{Pos: geo.Pt(rng.Float64()*140-20, rng.Float64()*140-20), Acc: rng.Float64() * 50}
			if got, _ := pred.overlap(ld); got != a.Overlap(ld) {
				t.Fatalf("overlap %v, want %v for %+v in %v", got, a.Overlap(ld), ld, pg)
			}
			ok, _ := pred.Qualifies(ld)
			if want := a.RangeQualifies(ld, 100, 0.5); ok != want {
				t.Fatalf("Qualifies %v, want %v for %+v in %v", ok, want, ld, pg)
			}
		}
	}
}

func TestRangePredicateZeroValueAndBadThresholds(t *testing.T) {
	ld := LocationDescriptor{Pos: geo.Pt(5, 5), Acc: 1}
	var zero RangePredicate
	if ok, _ := zero.Qualifies(ld); ok {
		t.Error("zero predicate qualified a descriptor")
	}
	a := AreaFromRect(geo.R(0, 0, 10, 10))
	var pred RangePredicate
	for _, reqOverlap := range []float64{0, -1, 1.5} {
		pred.Prepare(a, 10, reqOverlap)
		if ok, _ := pred.Qualifies(ld); ok {
			t.Errorf("reqOverlap %v qualified", reqOverlap)
		}
	}
	pred.Prepare(a, 0.5, 0.5)
	if ok, _ := pred.Qualifies(ld); ok {
		t.Error("descriptor less accurate than reqAcc qualified")
	}
}

// TestRangePredicateBoundsHoldEveryQualifier: the filter rectangle holds
// every position the predicate accepts, on every kind of area and at
// every threshold; below a reqOverlap of 0.5 it is the reqAcc-enlarged
// bounds, from 0.5 on it hugs the area's bounds. Descriptors lie at
// random around the area, and on its vertices and edges and a hair to
// either side of them, relative to the area's scale.
func TestRangePredicateBoundsHoldEveryQualifier(t *testing.T) {
	areas := []struct {
		name string
		pg   geo.Polygon
	}{
		{"100 m square", geo.R(1000, 2000, 1100, 2100).Poly()},
		{"4 km rectangle", geo.R(-2000, 0, 2000, 1500).Poly()},
		{"triangle", geo.Polygon{geo.Pt(0, 0), geo.Pt(200, 0), geo.Pt(30, 100)}},
		{"hexagon", geo.Polygon{geo.Pt(500, 480), geo.Pt(540, 500), geo.Pt(540, 540), geo.Pt(500, 560), geo.Pt(460, 540), geo.Pt(460, 500)}},
		{"sliver", geo.Polygon{geo.Pt(0, 0), geo.Pt(300, 299.5), geo.Pt(300, 300), geo.Pt(0, 0.5)}},
		{"L-shape (not convex)", geo.Polygon{geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(100, 40), geo.Pt(40, 40), geo.Pt(40, 100), geo.Pt(0, 100)}},
	}
	offsets := []float64{0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6}
	dirs := []geo.Point{geo.Pt(1, 0), geo.Pt(-1, 0), geo.Pt(0, 1), geo.Pt(0, -1),
		geo.Pt(math.Sqrt2/2, math.Sqrt2/2), geo.Pt(-math.Sqrt2/2, math.Sqrt2/2),
		geo.Pt(math.Sqrt2/2, -math.Sqrt2/2), geo.Pt(-math.Sqrt2/2, -math.Sqrt2/2)}
	rng := rand.New(rand.NewSource(60))
	for _, ac := range areas {
		for _, pg := range []geo.Polygon{ac.pg, reversed(ac.pg)} {
			a := Area{Vertices: pg}
			b := a.Bounds()
			scale := math.Max(b.Width(), b.Height())
			// The places a descriptor is put: vertices, points along the
			// edges, each moved by every offset in every direction, and
			// random points around the area.
			var spots []geo.Point
			for i, v := range pg {
				w := pg[(i+1)%len(pg)]
				for _, c := range []geo.Point{v, v.Add(w.Sub(v).Scale(0.5)), v.Add(w.Sub(v).Scale(rng.Float64()))} {
					for _, off := range offsets {
						for _, d := range dirs {
							spots = append(spots, c.Add(d.Scale(off*scale)))
						}
					}
				}
			}
			for i := 0; i < 300; i++ {
				spots = append(spots, geo.Pt(b.Min.X-scale/2+rng.Float64()*2*scale, b.Min.Y-scale/2+rng.Float64()*2*scale))
			}
			for _, reqAcc := range []float64{0.5, 50} {
				for _, reqOverlap := range []float64{1e-9, 0.3, 0.5, 0.75, 1} {
					var pred RangePredicate
					pred.Prepare(a, reqAcc, reqOverlap)
					rect := pred.Bounds()
					if reqOverlap < 0.5 {
						if want := b.Enlarge(reqAcc); rect != want {
							t.Fatalf("%s, reqOverlap %v: Bounds %v, want the enlarged bounds %v", ac.name, reqOverlap, rect, want)
						}
					} else if !b.Enlarge(1e-5).ContainsRect(rect) {
						t.Fatalf("%s, reqOverlap %v, reqAcc %v: Bounds %v reach beyond the area's bounds %v", ac.name, reqOverlap, reqAcc, rect, b)
					}
					accepted := 0
					for _, p := range spots {
						for _, acc := range []float64{0, rng.Float64() * reqAcc, reqAcc} {
							ld := LocationDescriptor{Pos: p, Acc: acc}
							ok, _ := pred.Qualifies(ld)
							if !ok {
								continue
							}
							accepted++
							if !rect.ContainsClosed(p) {
								t.Fatalf("%s, reqOverlap %v: %+v qualifies (overlap %.17g) outside Bounds %v",
									ac.name, reqOverlap, ld, a.Overlap(ld), rect)
							}
						}
					}
					if accepted == 0 {
						t.Fatalf("%s, reqOverlap %v: nothing qualified", ac.name, reqOverlap)
					}
				}
			}
		}
	}
}

func TestSelectNearestNearSetIsDistanceOrderedPrefix(t *testing.T) {
	p := geo.Pt(0, 0)
	cands := []Entry{
		{OID: "far", LD: LocationDescriptor{Pos: geo.Pt(100, 0), Acc: 1}},
		{OID: "b", LD: LocationDescriptor{Pos: geo.Pt(0, 10), Acc: 1}},
		{OID: "coarse", LD: LocationDescriptor{Pos: geo.Pt(1, 0), Acc: 99}},
		{OID: "a", LD: LocationDescriptor{Pos: geo.Pt(10, 0), Acc: 1}},
		{OID: "near", LD: LocationDescriptor{Pos: geo.Pt(25, 0), Acc: 1}},
	}
	res := SelectNearest(p, 5, 15, cands)
	if !res.Found || res.Nearest.OID != "a" {
		t.Fatalf("nearest = %+v, want a (tie with b broken by id)", res.Nearest)
	}
	if len(res.Near) != 2 || res.Near[0].OID != "b" || res.Near[1].OID != "near" {
		t.Fatalf("near = %+v, want [b near]", res.Near)
	}
	if res.GuaranteedMinDist != 5 {
		t.Fatalf("guaranteed min dist = %v, want 5", res.GuaranteedMinDist)
	}
}

// TestRangePredicateInteriorNeverDisagrees: wherever the bucket-level
// verdict calls a rectangle interior, Qualifies accepts every descriptor
// centred in it with an accuracy of at most reqAcc without the exact
// arithmetic, and rejects the less accurate ones — on rectangles and
// convex polygons, below, at and above a reqOverlap of 0.5, at reqAcc 0
// and above, for rectangles at random, hugging the area at exactly the
// required depth and a hair less, and touching its border.
func TestRangePredicateInteriorNeverDisagrees(t *testing.T) {
	areas := []struct {
		name   string
		pg     geo.Polygon
		convex bool
	}{
		{"100 m square", geo.R(1000, 2000, 1100, 2100).Poly(), true},
		{"1 km rectangle", geo.R(-500, 0, 500, 400).Poly(), true},
		{"1 km square turned by 45°", geo.Polygon{geo.Pt(707.1, 0), geo.Pt(1414.2, 707.1), geo.Pt(707.1, 1414.2), geo.Pt(0, 707.1)}, true},
		{"triangle", geo.Polygon{geo.Pt(0, 0), geo.Pt(200, 0), geo.Pt(30, 100)}, true},
		{"hexagon", geo.Polygon{geo.Pt(500, 480), geo.Pt(540, 500), geo.Pt(540, 540), geo.Pt(500, 560), geo.Pt(460, 540), geo.Pt(460, 500)}, true},
		{"L-shape (not convex)", geo.Polygon{geo.Pt(0, 0), geo.Pt(100, 0), geo.Pt(100, 40), geo.Pt(40, 40), geo.Pt(40, 100), geo.Pt(0, 100)}, false},
	}
	rng := rand.New(rand.NewSource(61))
	for _, ac := range areas {
		for _, pg := range []geo.Polygon{ac.pg, reversed(ac.pg)} {
			a := Area{Vertices: pg}
			b := a.Bounds()
			for _, reqAcc := range []float64{0, 20} {
				need := math.Max(reqAcc, pointMargin)
				for _, reqOverlap := range []float64{0.3, 0.5, 0.75, 1} {
					var pred RangePredicate
					pred.Prepare(a, reqAcc, reqOverlap)
					// The rectangles the verdict is asked about.
					var subs []geo.Rect
					for i := 0; i < 400; i++ {
						p := geo.Pt(b.Min.X-10+rng.Float64()*(b.Width()+20), b.Min.Y-10+rng.Float64()*(b.Height()+20))
						q := p.Add(geo.Pt(rng.Float64()*b.Width()/4, rng.Float64()*b.Height()/4))
						subs = append(subs, geo.Rect{Min: p, Max: q}, geo.Rect{Min: p, Max: p})
					}
					for _, v := range pg {
						// A bucket with a corner on the border.
						c := b.Center()
						subs = append(subs, geo.Rect{Min: v, Max: v}, geo.R(v.X, v.Y, c.X, c.Y))
					}
					if ac.name == "100 m square" || ac.name == "1 km rectangle" {
						// The coordinates nearest the border that lie need
						// inside it, as the edge distance rounds them.
						in := func(edge, dir float64) float64 {
							x := edge + dir*need
							for (x-edge)*dir < need {
								x = math.Nextafter(x, dir*math.Inf(1))
							}
							return x
						}
						hug := geo.Rect{Min: geo.Pt(in(b.Min.X, 1), in(b.Min.Y, 1)), Max: geo.Pt(in(b.Max.X, -1), in(b.Max.Y, -1))}
						if !pred.Interior(hug) {
							t.Fatalf("%s reqAcc %v reqOverlap %v: the bounds shrunk by exactly %v are not interior", ac.name, reqAcc, reqOverlap, need)
						}
						hair := hug
						hair.Min.X = math.Nextafter(hair.Min.X, math.Inf(-1))
						subs = append(subs, hug, hair, geo.Rect{Min: hug.Min, Max: hug.Min}, geo.Rect{Min: hug.Max, Max: hug.Max})
					}
					interior := 0
					for _, sub := range subs {
						if !pred.Interior(sub) {
							continue
						}
						interior++
						if !ac.convex {
							t.Fatalf("%s: %v called interior", ac.name, sub)
						}
						// Descriptors on the bucket's corners and edges and
						// inside it.
						spots := []geo.Point{sub.Min, sub.Max, geo.Pt(sub.Min.X, sub.Max.Y), geo.Pt(sub.Max.X, sub.Min.Y),
							geo.Pt(sub.Min.X, sub.Center().Y), geo.Pt(sub.Center().X, sub.Max.Y), sub.Center()}
						for k := 0; k < 4; k++ {
							spots = append(spots, geo.Pt(sub.Min.X+rng.Float64()*sub.Width(), sub.Min.Y+rng.Float64()*sub.Height()))
						}
						for _, p := range spots {
							for _, acc := range []float64{0, reqAcc, rng.Float64() * reqAcc, reqAcc + 1, -1} {
								ok, exact := pred.Qualifies(LocationDescriptor{Pos: p, Acc: acc})
								if want := acc <= reqAcc; ok != want || exact {
									t.Fatalf("%s reqAcc %v reqOverlap %v: interior %v, descriptor (%v, %v) qualifies %v (exact %v), want %v",
										ac.name, reqAcc, reqOverlap, sub, p, acc, ok, exact, want)
								}
							}
						}
					}
					if ac.convex && interior == 0 {
						t.Fatalf("%s reqAcc %v reqOverlap %v: no rectangle found interior", ac.name, reqAcc, reqOverlap)
					}
				}
			}
			// Thresholds Qualifies rejects outright leave no interior.
			for _, reqOverlap := range []float64{0, -1, 1.5} {
				var pred RangePredicate
				pred.Prepare(a, 10, reqOverlap)
				if c := b.Center(); pred.Interior(geo.Rect{Min: c, Max: c}) {
					t.Fatalf("%s: reqOverlap %v leaves the centre interior", ac.name, reqOverlap)
				}
			}
		}
	}
	var zero RangePredicate
	if zero.Interior(geo.R(0, 0, 1, 1)) {
		t.Fatal("the zero predicate has an interior")
	}
}
