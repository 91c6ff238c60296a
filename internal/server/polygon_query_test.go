package server_test

import (
	"fmt"
	"math/rand"
	"testing"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/oracle"
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
	truth := oracle.New(ls.dep.Configs)
	const n = 200
	for i := 0; i < n; i++ {
		p := geo.Pt(rng.Float64()*1500, rng.Float64()*1500)
		register(t, owner, truth, sightingAt(fmt.Sprintf("o%d", i), p), 15, 100, 3)
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
		got := checkedRange(t, querier, truth, area, 20, 0.5)
		if si == 0 && len(got) == 0 {
			t.Fatal("hexagon query matched nothing; test population too sparse")
		}
	}
}
