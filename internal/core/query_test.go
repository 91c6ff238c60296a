package core

import (
	"math"
	"math/rand"
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
	res := SelectNearest(cands, p, 20, 0)
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
	res := SelectNearest(cands, p, 25, 0)
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
	res := SelectNearest([]Entry{o, o1, o2, o3}, p, reqAcc, nearQual)
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
		res := SelectNearest(cands, p, reqAcc, 2*reqAcc)
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
	res := SelectNearest(nil, geo.Pt(0, 0), 10, 5)
	if res.Found {
		t.Error("empty candidate set reported Found")
	}
	res = SelectNearest([]Entry{
		{OID: "bad", LD: LocationDescriptor{Pos: geo.Pt(1, 1), Acc: 100}},
	}, geo.Pt(0, 0), 10, 5)
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
		res := SelectNearest(cands, p, 10, 0)
		if res.Nearest.OID != "a" {
			t.Fatalf("tie break chose %v, want a", res.Nearest.OID)
		}
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
