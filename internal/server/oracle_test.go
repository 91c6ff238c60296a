package server_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// TestDistributedRangeQueryMatchesOracle registers objects at random
// positions across a deep hierarchy and checks, for random query areas and
// parameters, that the distributed range query returns exactly the set a
// brute-force evaluation of the Section 3.2 predicate over all known
// objects produces. This is the core correctness property of Algorithm 6-5:
// tree routing, fan-out, enlargement and coverage accounting must never
// lose or duplicate a qualifying object.
func TestDistributedRangeQueryMatchesOracle(t *testing.T) {
	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1600, 1600),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}},
	}
	ls := newTestLS(t, spec, server.Options{AchievableAcc: 20})
	owner := ls.newClientAt(t, "owner", geo.Pt(10, 10), client.Options{})

	rng := rand.New(rand.NewSource(77))
	type known struct {
		oid core.OID
		ld  core.LocationDescriptor
	}
	var objects []known
	const n = 300
	for i := 0; i < n; i++ {
		p := geo.Pt(rng.Float64()*1600, rng.Float64()*1600)
		oid := core.OID(fmt.Sprintf("o%d", i))
		obj, err := owner.Register(ctx(t), sightingAt(string(oid), p), 20, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		objects = append(objects, known{oid: oid, ld: core.LocationDescriptor{Pos: p, Acc: obj.OfferedAcc()}})
	}
	waitFor(t, func() bool { return ls.dep.RootVisitorCount() == n }, "paths complete")

	querier := ls.newClientAt(t, "querier", geo.Pt(1500, 1500), client.Options{})
	for trial := 0; trial < 40; trial++ {
		size := 50 + rng.Float64()*600
		x := rng.Float64() * (1600 - size)
		y := rng.Float64() * (1600 - size)
		area := core.AreaFromRect(geo.R(x, y, x+size, y+size))
		reqAcc := 20 + rng.Float64()*30
		reqOverlap := 0.1 + rng.Float64()*0.9

		got, err := querier.RangeQuery(ctx(t), area, reqAcc, reqOverlap)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var want []core.OID
		for _, k := range objects {
			if area.RangeQualifies(k.ld, reqAcc, reqOverlap) {
				want = append(want, k.oid)
			}
		}
		gotIDs := make([]core.OID, len(got))
		for i, e := range got {
			gotIDs[i] = e.OID
		}
		sortOIDs(want)
		sortOIDs(gotIDs)
		if !equalOIDs(gotIDs, want) {
			t.Fatalf("trial %d (size %.0f, acc %.1f, overlap %.2f): got %d objects, oracle %d\n got: %v\nwant: %v",
				trial, size, reqAcc, reqOverlap, len(gotIDs), len(want), gotIDs, want)
		}
	}
}

// TestDistributedNeighborQueryMatchesOracle does the same for the
// nearest-neighbor expanding search.
func TestDistributedNeighborQueryMatchesOracle(t *testing.T) {
	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1600, 1600),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
	ls := newTestLS(t, spec, server.Options{AchievableAcc: 15})
	owner := ls.newClientAt(t, "owner", geo.Pt(10, 10), client.Options{})

	rng := rand.New(rand.NewSource(101))
	var entries []core.Entry
	const n = 150
	for i := 0; i < n; i++ {
		p := geo.Pt(rng.Float64()*1600, rng.Float64()*1600)
		oid := core.OID(fmt.Sprintf("o%d", i))
		obj, err := owner.Register(ctx(t), sightingAt(string(oid), p), 15, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, core.Entry{OID: oid, LD: core.LocationDescriptor{Pos: p, Acc: obj.OfferedAcc()}})
	}
	waitFor(t, func() bool { return ls.dep.RootVisitorCount() == n }, "paths complete")

	querier := ls.newClientAt(t, "querier", geo.Pt(800, 800), client.Options{})
	for trial := 0; trial < 25; trial++ {
		p := geo.Pt(rng.Float64()*1600, rng.Float64()*1600)
		nearQual := rng.Float64() * 100
		got, err := querier.NeighborQuery(ctx(t), p, 30, nearQual)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := core.SelectNearest(entries, p, 30, nearQual)
		if got.Nearest.OID != want.Nearest.OID {
			t.Fatalf("trial %d: nearest %s, oracle %s (dist %.1f vs %.1f)",
				trial, got.Nearest.OID, want.Nearest.OID,
				got.Nearest.LD.Pos.Dist(p), want.Nearest.LD.Pos.Dist(p))
		}
		if len(got.Near) != len(want.Near) {
			t.Fatalf("trial %d: nearObjSet size %d, oracle %d", trial, len(got.Near), len(want.Near))
		}
	}
}

// TestQueriesUnderMessageLoss injects datagram loss and verifies the
// service degrades gracefully: operations may fail or return partial
// results, but nothing deadlocks or crashes, and the system keeps serving
// once loss stops.
func TestQueriesUnderMessageLoss(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{FaultPlan: transport.NewLoss(0.10, 9).Plan})
	dep, err := hierarchy.Deploy(net, quadSpec(), server.Options{
		QueryTimeout: 100 * time.Millisecond,
		CallTimeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close(); net.Close() })

	owner, err := client.New(net, "owner", "r.0", client.Options{Timeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { owner.Close() })

	registered := 0
	for i := 0; i < 20; i++ {
		// Registrations can be lost; retry like a real client would.
		for attempt := 0; attempt < 5; attempt++ {
			_, rerr := owner.Register(ctx(t), sightingAt(fmt.Sprintf("o%d", i),
				geo.Pt(float64(10+i*30), 100)), 10, 50, 3)
			if rerr == nil {
				registered++
				break
			}
		}
	}
	if registered < 15 {
		t.Fatalf("only %d/20 registrations survived retries", registered)
	}

	// Queries under loss: every call must return within its timeout,
	// successfully or not.
	q, err := client.New(net, "q", "r.3", client.Options{Timeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	successes := 0
	for i := 0; i < 15; i++ {
		start := time.Now()
		_, qerr := q.RangeQueryRect(ctx(t), geo.R(0, 0, 1500, 300), 50, 0.5)
		if qerr == nil {
			successes++
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("query %d took %v despite timeouts", i, time.Since(start))
		}
	}
	if successes == 0 {
		t.Error("no query succeeded under 10% loss")
	}
}

func sortOIDs(ids []core.OID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func equalOIDs(a, b []core.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
