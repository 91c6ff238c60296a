package server_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/server"
)

// TestPolygonRangeQuery runs distributed range queries with non-rectangular
// (convex polygon) areas spanning several leaves and checks the results
// against the oracle — the paper allows query areas to be arbitrary
// polygons, not just rectangles.
func TestPolygonRangeQuery(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{AchievableAcc: 15})
	owner := ls.newClientAt(t, "owner", geo.Pt(10, 10), client.Options{})

	rng := rand.New(rand.NewSource(55))
	var known []core.Entry
	const n = 200
	for i := 0; i < n; i++ {
		p := geo.Pt(rng.Float64()*1500, rng.Float64()*1500)
		oid := core.OID(fmt.Sprintf("o%d", i))
		obj, err := owner.Register(ctx(t), sightingAt(string(oid), p), 15, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		known = append(known, core.Entry{OID: oid, LD: core.LocationDescriptor{Pos: p, Acc: obj.OfferedAcc()}})
	}
	waitFor(t, func() bool { return ls.dep.RootVisitorCount() == n }, "paths complete")

	querier := ls.newClientAt(t, "querier", geo.Pt(1400, 100), client.Options{})
	shapes := []core.Area{
		// Hexagon around the center, straddling all four leaves.
		{Vertices: geo.Polygon{
			{X: 1050, Y: 750}, {X: 900, Y: 1009.8076211353316}, {X: 600, Y: 1009.8076211353316},
			{X: 450, Y: 750}, {X: 600, Y: 490.1923788646684}, {X: 900, Y: 490.1923788646684},
		}},
		// Triangle in the west.
		core.AreaFromPoints([]geo.Point{{X: 100, Y: 100}, {X: 600, Y: 400}, {X: 100, Y: 900}}),
		// Hull of a scattered point set.
		core.AreaFromPoints([]geo.Point{
			{X: 900, Y: 200}, {X: 1300, Y: 350}, {X: 1100, Y: 800}, {X: 950, Y: 600}, {X: 1000, Y: 250},
		}),
	}
	for si, area := range shapes {
		if !area.Valid() {
			t.Fatalf("shape %d invalid", si)
		}
		got, err := querier.RangeQuery(ctx(t), area, 20, 0.5)
		if err != nil {
			t.Fatalf("shape %d: %v", si, err)
		}
		var want []core.OID
		for _, k := range known {
			if area.RangeQualifies(k.LD, 20, 0.5) {
				want = append(want, k.OID)
			}
		}
		gotIDs := make([]core.OID, len(got))
		for i, e := range got {
			gotIDs[i] = e.OID
		}
		sort.Slice(gotIDs, func(i, j int) bool { return gotIDs[i] < gotIDs[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !equalOIDs(gotIDs, want) {
			t.Fatalf("shape %d: got %v, oracle %v", si, gotIDs, want)
		}
		if si == 0 && len(want) == 0 {
			t.Fatal("hexagon query matched nothing; test population too sparse")
		}
	}
}
