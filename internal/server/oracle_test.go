package server_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/oracle"
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
	truth := oracle.New(ls.dep.Configs)
	const n = 300
	for i := 0; i < n; i++ {
		p := geo.Pt(rng.Float64()*1600, rng.Float64()*1600)
		register(t, owner, truth, sightingAt(fmt.Sprintf("o%d", i), p), 20, 100, 3)
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
		checkedRange(t, querier, truth, area, reqAcc, reqOverlap)
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
	truth := oracle.New(ls.dep.Configs)
	const n = 150
	for i := 0; i < n; i++ {
		p := geo.Pt(rng.Float64()*1600, rng.Float64()*1600)
		register(t, owner, truth, sightingAt(fmt.Sprintf("o%d", i), p), 15, 100, 3)
	}
	waitFor(t, func() bool { return ls.dep.RootVisitorCount() == n }, "paths complete")

	querier := ls.newClientAt(t, "querier", geo.Pt(800, 800), client.Options{})
	for trial := 0; trial < 25; trial++ {
		p := geo.Pt(rng.Float64()*1600, rng.Float64()*1600)
		checkedNN(t, querier, truth, p, 30, rng.Float64()*100)
	}
}

// TestQueriesUnderMessageLoss injects datagram loss and verifies the
// service degrades gracefully: operations may fail or return partial
// results, but nothing deadlocks or crashes, and every answer that does
// come back is right — complete, or Partial and missing only what lies
// behind the servers it names.
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

	truth := oracle.New(dep.Configs)
	registered := 0
	for i := 0; i < 20; i++ {
		oid, p := fmt.Sprintf("o%d", i), geo.Pt(float64(10+i*30), 100)
		// A registration whose answer was lost may have taken effect,
		// at the accuracy every leaf offers here: its default 10 m, the
		// desired accuracy.
		truth.Sent(core.OID(oid), core.LocationDescriptor{Pos: p, Acc: 10})
		// Registrations can be lost; retry like a real client would.
		for attempt := 0; attempt < 5; attempt++ {
			obj, rerr := owner.Register(ctx(t), sightingAt(oid, p), 10, 50, 3)
			if rerr == nil {
				truth.Track(obj)
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
	area := core.AreaFromRect(geo.R(0, 0, 1500, 300))
	successes := 0
	for i := 0; i < 15; i++ {
		start := time.Now()
		res, qerr := q.RangeQueryFull(ctx(t), area, 50, 0.5)
		if qerr == nil {
			successes++
			if err := truth.CheckRange(area, 50, 0.5, res); err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("query %d took %v despite timeouts", i, time.Since(start))
		}
	}
	if successes == 0 {
		t.Error("no query succeeded under 10% loss")
	}
	t.Logf("answers checked: %+v", truth.Checked())
}

// register registers s through c and records the acknowledged state in
// truth.
func register(t *testing.T, c *client.Client, truth *oracle.Oracle, s core.Sighting, desAcc, minAcc, maxSpeed float64) *client.TrackedObject {
	t.Helper()
	obj, err := c.Register(ctx(t), s, desAcc, minAcc, maxSpeed)
	if err != nil {
		t.Fatalf("register %s: %v", s.OID, err)
	}
	truth.Track(obj)
	return obj
}

// checkedPos runs a position query against a deployment without faults:
// the object must be found, where truth has it.
func checkedPos(t *testing.T, c *client.Client, truth *oracle.Oracle, oid core.OID) {
	t.Helper()
	ld, err := c.PosQuery(ctx(t), oid)
	if cerr := truth.CheckPos(oid, ld, err); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatalf("position query of %s: %v", oid, err)
	}
}

// checkedRange runs a range query against a deployment without faults:
// the answer must be complete and agree with truth.
func checkedRange(t *testing.T, c *client.Client, truth *oracle.Oracle, area core.Area, reqAcc, reqOverlap float64) []core.Entry {
	t.Helper()
	res, err := c.RangeQueryFull(ctx(t), area, reqAcc, reqOverlap)
	if err == nil && res.Partial {
		err = fmt.Errorf("range query %v: partial answer, unreachable %v", area.Bounds(), res.Unreachable)
	}
	if err == nil {
		err = truth.CheckRange(area, reqAcc, reqOverlap, res)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Objs
}

// checkedNN runs a nearest-neighbour query against a deployment without
// faults: the answer must be complete and agree with truth, and "nothing
// qualifies" is an answer too.
func checkedNN(t *testing.T, c *client.Client, truth *oracle.Oracle, p geo.Point, reqAcc, nearQual float64) client.NeighborResult {
	t.Helper()
	res, err := c.NeighborQuery(ctx(t), p, reqAcc, nearQual)
	if cerr := truth.CheckNN(p, reqAcc, nearQual, res, err); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil && !errors.Is(err, core.ErrNotFound) || res.Partial {
		t.Fatalf("neighbour query at %v: partial=%v err=%v", p, res.Partial, err)
	}
	return res
}
