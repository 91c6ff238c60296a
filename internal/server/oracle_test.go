package server_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
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
// nearest-neighbor search. Each query enters both at P's own leaf, where
// it mostly starts from the bound the leaf's own nearest candidate gives,
// and at another leaf, where that candidate often lies past the leaf's
// first radius and the search starts without a bound; both starts must
// occur.
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
	leaves := ls.dep.Leaves()
	count := func(name string) (n int64) {
		for _, id := range leaves {
			n += ls.dep.Servers[id].Metrics().Counter(name).Value()
		}
		return n
	}
	for trial := 0; trial < 25; trial++ {
		p := geo.Pt(rng.Float64()*1600, rng.Float64()*1600)
		nearQual := rng.Float64() * 100
		own, _ := ls.dep.LeafFor(p)
		other := leaves[(slices.Index(leaves, own)+1+rng.Intn(len(leaves)-1))%len(leaves)]
		for _, entry := range []msg.NodeID{own, other} {
			querier.SetEntry(entry)
			checkedNN(t, querier, truth, p, 30, nearQual)
		}
	}
	bounded := count("neighbor_query_local_bound")
	unbounded := count("neighbor_query_seen") - count("neighbor_query_local_fast") - bounded
	t.Logf("%d bounded and %d unbounded starts", bounded, unbounded)
	if bounded == 0 || unbounded == 0 {
		t.Errorf("%d bounded and %d unbounded starts, want both", bounded, unbounded)
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

// TestDuplicatedPartialCountedOnce: a partial range result delivered twice
// — UDP may duplicate a datagram — counts its cover and its entries once.
// Every partial to the entry server r.0 arrives twice, and r.3's only when
// the manual clock passes its delay. Counted twice, the doubled covers of
// r.1 and r.2 would close the tally before r.3 answers: one leaf's objects
// reported twice, r.3's missing, and the answer not Partial. A
// nearest-neighbour query runs on the same collection, whether it starts
// from a bound off the entry leaf's own candidates or, without one, from
// the entry leaf's first radius; each one's nearest object lies in r.3.
func TestDuplicatedPartialCountedOnce(t *testing.T) {
	const hold = time.Second
	ls, clk := newManualLS(t, quadSpec(), server.Options{}, transport.InprocOptions{
		FaultPlan: func(from, to msg.NodeID, env msg.Envelope) transport.Fault {
			if _, ok := env.Msg.(msg.RangeQuerySubRes); !ok || to != "r.0" {
				return transport.Fault{}
			}
			f := transport.Fault{Duplicate: 1}
			if from == "r.3" {
				f.Delay = hold
			}
			return f
		},
	})
	if leaf, _ := ls.dep.LeafFor(geo.Pt(1200, 1200)); leaf != "r.3" {
		t.Fatalf("the north-east quarter is %s's, want r.3's", leaf)
	}
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	truth := oracle.New(ls.dep.Configs)
	objs := []geo.Point{
		{X: 690, Y: 690}, {X: 100, Y: 600}, // r.0
		{X: 830, Y: 700}, {X: 1400, Y: 100}, // r.1
		{X: 700, Y: 830}, {X: 100, Y: 1400}, // r.2
		{X: 780, Y: 780}, {X: 1400, Y: 1400}, // r.3
	}
	for i, p := range objs {
		register(t, owner, truth, sightingAt(fmt.Sprintf("o%d", i), p), 10, 50, 3)
	}
	waitFor(t, func() bool { return ls.dep.RootVisitorCount() == len(objs) }, "the forwarding paths")

	querier := ls.newClientAt(t, "querier", geo.Pt(100, 100), client.Options{})
	r0 := ls.dep.Servers["r.0"]
	dups := r0.Metrics().Counter("range_partial_duplicate")
	// settle returns a query's outcome. Each of its collections counts
	// r.1's and r.2's second copies while it waits for r.3, and only then
	// does the clock pass r.3's delay.
	settle := func(done <-chan error) error {
		t.Helper()
		for want := dups.Value() + 2; ; want += 2 {
			waitFor(t, func() bool { return len(done) > 0 || dups.Value() >= want }, "the doubled partials")
			select {
			case err := <-done:
				return err
			default:
				clk.Advance(hold)
			}
		}
	}

	area := core.AreaFromRect(geo.R(0, 0, 1500, 1500))
	done := make(chan error, 1)
	go func() {
		res, err := querier.RangeQueryFull(ctx(t), area, 50, 0.5)
		if err == nil && res.Partial {
			err = fmt.Errorf("partial answer, unreachable %v", res.Unreachable)
		}
		done <- errors.Join(err, truth.CheckRange(area, 50, 0.5, res))
	}()
	if err := settle(done); err != nil {
		t.Errorf("range query: %v", err)
	}

	// At (750, 750) r.0's own nearest, (690, 690), is 85 m away, within
	// r.0's first radius of 187.5 m: the query starts from that bound and
	// one collection over all four leaves finds (780, 780) inside it. At
	// (745, 500) it is 198 m away, past the first radius, so the query
	// starts without a bound; its first window reaches every leaf and
	// finds (690, 690) outside the radius, and a second, grown to that
	// distance, accepts it. Both windows wait for r.3.
	bound, local := r0.Metrics().Counter("neighbor_query_local_bound"), r0.Metrics().Counter("neighbor_query_local_fast")
	for _, q := range []struct {
		p     geo.Point
		bound int64
	}{{geo.Pt(750, 750), 1}, {geo.Pt(745, 500), 0}} {
		q := q
		boundBefore, localBefore := bound.Value(), local.Value()
		go func() {
			res, err := querier.NeighborQuery(ctx(t), q.p, 30, 100)
			if err == nil && res.Partial {
				err = fmt.Errorf("partial answer, unreachable %v", res.Unreachable)
			}
			done <- errors.Join(err, truth.CheckNN(q.p, 30, 100, res, err))
		}()
		if err := settle(done); err != nil {
			t.Errorf("neighbour query at %v: %v", q.p, err)
		}
		if got := bound.Value() - boundBefore; got != q.bound || local.Value() != localBefore {
			t.Errorf("neighbour query at %v: %d bounded starts and %d local answers, want %d and 0", q.p, got, local.Value()-localBefore, q.bound)
		}
	}
	// One collection for the range query, one for the bounded neighbour
	// query and two for the unbounded one, each counting r.1's and r.2's
	// second copies once.
	if got := dups.Value(); got != 8 {
		t.Errorf("range_partial_duplicate = %d, want 8", got)
	}
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
