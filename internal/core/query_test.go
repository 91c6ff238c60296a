package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"locsvc/internal/geo"
)

func TestOverlapPointDescriptor(t *testing.T) {
	a := AreaFromRect(geo.R(0, 0, 10, 10))
	inside := LocationDescriptor{Pos: geo.Pt(5, 5)}
	outside := LocationDescriptor{Pos: geo.Pt(15, 5)}
	if got := a.Overlap(inside); got != 1 {
		t.Errorf("overlap inside point = %v, want 1", got)
	}
	if got := a.Overlap(outside); got != 0 {
		t.Errorf("overlap outside point = %v, want 0", got)
	}
}

func TestOverlapFigure3Cases(t *testing.T) {
	// Reconstructs the qualitative cases of Fig. 3: an object fully
	// inside has overlap 1, fully outside 0, straddling in between.
	a := AreaFromRect(geo.R(0, 0, 100, 100))
	tests := []struct {
		name string
		ld   LocationDescriptor
		lo   float64
		hi   float64
	}{
		{"fully inside (o1)", LocationDescriptor{Pos: geo.Pt(50, 50), Acc: 10}, 1, 1},
		{"fully outside (o2)", LocationDescriptor{Pos: geo.Pt(200, 200), Acc: 10}, 0, 0},
		{"half on edge (o3)", LocationDescriptor{Pos: geo.Pt(0, 50), Acc: 10}, 0.49, 0.51},
		{"corner quarter", LocationDescriptor{Pos: geo.Pt(0, 0), Acc: 10}, 0.24, 0.26},
		{"mostly outside (o4)", LocationDescriptor{Pos: geo.Pt(-8, 50), Acc: 10}, 0.05, 0.25},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := a.Overlap(tt.ld)
			if got < tt.lo || got > tt.hi {
				t.Errorf("overlap = %v, want in [%v, %v]", got, tt.lo, tt.hi)
			}
		})
	}
}

func TestOverlapNeverExceedsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d = 35.35533905932738 // 50·cos 45°
	a := Area{Vertices: geo.Polygon{
		{X: 50, Y: 0}, {X: d, Y: d}, {X: 0, Y: 50}, {X: -d, Y: d},
		{X: -50, Y: 0}, {X: -d, Y: -d}, {X: 0, Y: -50}, {X: d, Y: -d},
	}}
	for i := 0; i < 500; i++ {
		ld := LocationDescriptor{
			Pos: geo.Pt(rng.Float64()*200-100, rng.Float64()*200-100),
			Acc: rng.Float64() * 60,
		}
		ov := a.Overlap(ld)
		if ov < 0 || ov > 1 {
			t.Fatalf("overlap out of range: %v for %+v", ov, ld)
		}
	}
}

func TestRangeQualifies(t *testing.T) {
	a := AreaFromRect(geo.R(0, 0, 100, 100))
	tests := []struct {
		name       string
		ld         LocationDescriptor
		reqAcc     float64
		reqOverlap float64
		want       bool
	}{
		{"inside, good accuracy", LocationDescriptor{geo.Pt(50, 50), 10}, 20, 0.5, true},
		{"inside, accuracy too coarse (o5 in Fig. 3)", LocationDescriptor{geo.Pt(50, 50), 30}, 20, 0.5, false},
		{"straddling, overlap above threshold", LocationDescriptor{geo.Pt(0, 50), 10}, 20, 0.3, true},
		{"straddling, overlap below threshold", LocationDescriptor{geo.Pt(0, 50), 10}, 20, 0.7, false},
		{"zero overlap threshold is invalid", LocationDescriptor{geo.Pt(50, 50), 10}, 20, 0, false},
		{"threshold above one is invalid", LocationDescriptor{geo.Pt(50, 50), 10}, 20, 1.1, false},
		{"exact threshold qualifies", LocationDescriptor{geo.Pt(50, 50), 10}, 10, 1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.RangeQualifies(tt.ld, tt.reqAcc, tt.reqOverlap); got != tt.want {
				t.Errorf("RangeQualifies = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSelectNearestBasic(t *testing.T) {
	p := geo.Pt(0, 0)
	cands := []Entry{
		{OID: "far", LD: LocationDescriptor{Pos: geo.Pt(100, 0), Acc: 10}},
		{OID: "near", LD: LocationDescriptor{Pos: geo.Pt(10, 0), Acc: 10}},
		{OID: "mid", LD: LocationDescriptor{Pos: geo.Pt(50, 0), Acc: 10}},
	}
	res := SelectNearest(p, 20, 0, cands)
	if !res.Found || res.Nearest.OID != "near" {
		t.Fatalf("nearest = %+v", res)
	}
	if len(res.Near) != 0 {
		t.Errorf("nearQual=0 should give empty nearObjSet, got %v", res.Near)
	}
	if math.Abs(res.GuaranteedMinDist-(10-20)) < 1e-9 {
		t.Error("negative guaranteed distance not clamped")
	}
	if res.GuaranteedMinDist != 0 {
		t.Errorf("GuaranteedMinDist = %v, want 0 (10 - 20 clamped)", res.GuaranteedMinDist)
	}
}

func TestSelectNearestGuaranteedDistance(t *testing.T) {
	p := geo.Pt(0, 0)
	cands := []Entry{{OID: "o", LD: LocationDescriptor{Pos: geo.Pt(100, 0), Acc: 25}}}
	res := SelectNearest(p, 25, 0, cands)
	if math.Abs(res.GuaranteedMinDist-75) > 1e-9 {
		t.Errorf("GuaranteedMinDist = %v, want 75", res.GuaranteedMinDist)
	}
}

func TestSelectNearestFigure4Scenario(t *testing.T) {
	// Fig. 4: o is returned; o1 is within nearQual of o's distance and
	// appears in nearObjSet; o2 is farther than dist(o)+nearQual; o3 is
	// excluded by accuracy.
	p := geo.Pt(0, 0)
	reqAcc, nearQual := 20.0, 30.0
	o := Entry{OID: "o", LD: LocationDescriptor{Pos: geo.Pt(50, 0), Acc: 15}}
	o1 := Entry{OID: "o1", LD: LocationDescriptor{Pos: geo.Pt(0, 70), Acc: 15}}
	o2 := Entry{OID: "o2", LD: LocationDescriptor{Pos: geo.Pt(0, 90), Acc: 15}}
	o3 := Entry{OID: "o3", LD: LocationDescriptor{Pos: geo.Pt(55, 0), Acc: 50}}
	res := SelectNearest(p, reqAcc, nearQual, []Entry{o, o1, o2, o3})
	if res.Nearest.OID != "o" {
		t.Fatalf("nearest = %v, want o", res.Nearest.OID)
	}
	if len(res.Near) != 1 || res.Near[0].OID != "o1" {
		t.Errorf("nearObjSet = %+v, want [o1]", res.Near)
	}
}

func TestSelectNearestNearQualTwiceReqAccIncludesAllPotentiallyCloser(t *testing.T) {
	// The paper: with nearQual = 2·reqAcc every object that could
	// potentially be closer to p than the selected one is in nearObjSet.
	rng := rand.New(rand.NewSource(11))
	p := geo.Pt(0, 0)
	reqAcc := 25.0
	for iter := 0; iter < 100; iter++ {
		var cands []Entry
		for i := 0; i < 30; i++ {
			cands = append(cands, Entry{
				OID: OID(rune('a' + i)),
				LD: LocationDescriptor{
					Pos: geo.Pt(rng.Float64()*400-200, rng.Float64()*400-200),
					Acc: rng.Float64() * reqAcc,
				},
			})
		}
		res := SelectNearest(p, reqAcc, 2*reqAcc, cands)
		if !res.Found {
			continue
		}
		nd := res.Nearest.LD.Pos.Dist(p)
		inNear := map[OID]bool{}
		for _, e := range res.Near {
			inNear[e.OID] = true
		}
		for _, e := range cands {
			if e.OID == res.Nearest.OID {
				continue
			}
			// Object could be closer than the nearest if its best
			// case beats the nearest's worst case.
			couldBeCloser := e.LD.Pos.Dist(p)-e.LD.Acc < nd+res.Nearest.LD.Acc
			if couldBeCloser && e.LD.Pos.Dist(p) <= nd+2*reqAcc && !inNear[e.OID] {
				t.Fatalf("iter %d: %v could be closer but missing from nearObjSet", iter, e.OID)
			}
		}
	}
}

func TestSelectNearestEmptyAndFiltered(t *testing.T) {
	res := SelectNearest(geo.Pt(0, 0), 10, 5, nil)
	if res.Found {
		t.Error("empty candidate set reported Found")
	}
	res = SelectNearest(geo.Pt(0, 0), 10, 5, []Entry{
		{OID: "bad", LD: LocationDescriptor{Pos: geo.Pt(1, 1), Acc: 100}},
	})
	if res.Found {
		t.Error("accuracy-filtered candidate reported Found")
	}
}

func TestSelectNearestDeterministicTieBreak(t *testing.T) {
	p := geo.Pt(0, 0)
	cands := []Entry{
		{OID: "b", LD: LocationDescriptor{Pos: geo.Pt(10, 0), Acc: 1}},
		{OID: "a", LD: LocationDescriptor{Pos: geo.Pt(0, 10), Acc: 1}},
	}
	for i := 0; i < 5; i++ {
		res := SelectNearest(p, 10, 0, cands)
		if res.Nearest.OID != "a" {
			t.Fatalf("tie break chose %v, want a", res.Nearest.OID)
		}
	}
}

// selectNearestReference is the selection rule as first written: every
// qualifying candidate joined, ranked by (distance, OID) and sorted, the
// nearObjSet read off as a prefix of the rest. SelectNearest must agree
// with it on every input.
func selectNearestReference(candidates []Entry, p geo.Point, reqAcc, nearQual float64) NearestResult {
	type ranked struct {
		e Entry
		d float64
	}
	qual := make([]ranked, 0, len(candidates))
	for _, e := range candidates {
		if e.LD.Acc <= reqAcc {
			qual = append(qual, ranked{e, e.LD.Pos.Dist(p)})
		}
	}
	if len(qual) == 0 {
		return NearestResult{}
	}
	sort.Slice(qual, func(i, j int) bool {
		if qual[i].d != qual[j].d {
			return qual[i].d < qual[j].d
		}
		return qual[i].e.OID < qual[j].e.OID
	})
	dist := qual[0].d
	res := NearestResult{Nearest: qual[0].e, Found: true}
	if g := dist - reqAcc; g > 0 {
		res.GuaranteedMinDist = g
	}
	limit := dist + nearQual
	for _, r := range qual[1:] {
		if r.d > limit {
			break
		}
		res.Near = append(res.Near, r.e)
	}
	return res
}

// TestSelectNearestMatchesReference: the in-place selection over parts
// returns exactly what the sort-everything reference returns over the
// joined candidates — on random parts, on empty and nil parts, on ties on
// distance, on candidates above reqAcc, at nearQual 0 and large, and for a
// query at a candidate's exact position.
func TestSelectNearestMatchesReference(t *testing.T) {
	// entries draws n candidates with ids from next, positions in a
	// 400 m square around the origin and accuracies up to 50 m.
	var next int
	entry := func(pos geo.Point, acc float64) Entry {
		next++
		return Entry{OID: OID(fmt.Sprintf("o%03d", next)), LD: LocationDescriptor{Pos: pos, Acc: acc}}
	}
	entries := func(rng *rand.Rand, n int) []Entry {
		var part []Entry
		for i := 0; i < n; i++ {
			part = append(part, entry(geo.Pt(rng.Float64()*400-200, rng.Float64()*400-200), rng.Float64()*50))
		}
		return part
	}
	randomParts := func(rng *rand.Rand) [][]Entry {
		parts := make([][]Entry, rng.Intn(6))
		for i := range parts {
			parts[i] = entries(rng, rng.Intn(20))
		}
		return parts
	}
	// onCircle puts every candidate 5 m from the origin on whole-metre
	// coordinates, so their distances tie exactly and the ids decide.
	onCircle := func(rng *rand.Rand) [][]Entry {
		pts := []geo.Point{geo.Pt(3, 4), geo.Pt(4, -3), geo.Pt(-5, 0), geo.Pt(0, 5), geo.Pt(-4, -3)}
		parts := make([][]Entry, 2)
		for _, i := range rng.Perm(len(pts)) {
			k := rng.Intn(2)
			parts[k] = append(parts[k], entry(pts[i], 10))
		}
		return parts
	}
	// steppedAcc gives every candidate an accuracy of 20, 30 or 40 m, so
	// some sit exactly at a reqAcc of 30.
	steppedAcc := func(rng *rand.Rand) [][]Entry {
		parts := randomParts(rng)
		for _, part := range parts {
			for i := range part {
				part[i].LD.Acc = float64(20 + 10*rng.Intn(3))
			}
		}
		return parts
	}
	rows := []struct {
		name             string
		p                func(rng *rand.Rand, parts [][]Entry) geo.Point
		reqAcc, nearQual float64
		parts            func(rng *rand.Rand) [][]Entry
	}{
		{"random parts", nil, 30, 20, randomParts},
		{"random parts, nearQual 0", nil, 30, 0, randomParts},
		{"random parts, nearQual large", nil, 30, 1000, randomParts},
		{"almost every candidate above reqAcc", nil, 0.5, 20, randomParts},
		{"candidates below, at and above reqAcc", nil, 30, 20, steppedAcc},
		{"no parts", nil, 30, 20, func(*rand.Rand) [][]Entry { return nil }},
		{"nil and empty parts", nil, 30, 20, func(*rand.Rand) [][]Entry { return [][]Entry{nil, {}, nil} }},
		{"empty parts beside one candidate", nil, 30, 20, func(rng *rand.Rand) [][]Entry { return [][]Entry{{}, entries(rng, 1), nil} }},
		{"ties on distance", func(*rand.Rand, [][]Entry) geo.Point { return geo.Pt(0, 0) }, 30, 0, onCircle},
		{"ties on distance, nearQual 0.5", func(*rand.Rand, [][]Entry) geo.Point { return geo.Pt(0, 0) }, 30, 0.5, onCircle},
		{"ties on distance above reqAcc", func(*rand.Rand, [][]Entry) geo.Point { return geo.Pt(0, 0) }, 5, 0, onCircle},
		{"at a candidate's exact position", func(rng *rand.Rand, parts [][]Entry) geo.Point {
			for _, part := range parts {
				if len(part) > 0 {
					return part[rng.Intn(len(part))].LD.Pos
				}
			}
			return geo.Pt(0, 0)
		}, 50, 0, randomParts},
		{"at a candidate's exact position, nearQual large", func(rng *rand.Rand, parts [][]Entry) geo.Point {
			for _, part := range parts {
				if len(part) > 0 {
					return part[rng.Intn(len(part))].LD.Pos
				}
			}
			return geo.Pt(0, 0)
		}, 50, 1000, randomParts},
	}
	rng := rand.New(rand.NewSource(23))
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for trial := 0; trial < 200; trial++ {
				parts := row.parts(rng)
				p := geo.Pt(rng.Float64()*400-200, rng.Float64()*400-200)
				if row.p != nil {
					p = row.p(rng, parts)
				}
				var joined []Entry
				for _, part := range parts {
					joined = append(joined, part...)
				}
				want := selectNearestReference(joined, p, row.reqAcc, row.nearQual)
				got := SelectNearest(p, row.reqAcc, row.nearQual, parts...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d at %v over %v:\n got %+v\nwant %+v", trial, p, parts, got, want)
				}
			}
		})
	}
}

func TestAreaHelpers(t *testing.T) {
	a := AreaFromRect(geo.R(0, 0, 10, 20))
	if got := a.Size(); got != 200 {
		t.Errorf("Size = %v", got)
	}
	if a.Empty() {
		t.Error("non-empty area reported Empty")
	}
	if (Area{}).Empty() == false {
		t.Error("zero area not Empty")
	}
	if got := a.Bounds(); got != geo.R(0, 0, 10, 20) {
		t.Errorf("Bounds = %v", got)
	}
	if !a.Contains(geo.Pt(5, 5)) || a.Contains(geo.Pt(50, 5)) {
		t.Error("Contains wrong")
	}
}
