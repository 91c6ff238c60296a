package server_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/oracle"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// testLS bundles a deployed hierarchy with its network for tests.
type testLS struct {
	net *transport.Inproc
	dep *hierarchy.Deployment
}

// newTestLS deploys the paper's testbed shape by default: a 1.5 km × 1.5 km
// root area split into four leaf quarters (Fig. 8).
func newTestLS(t *testing.T, spec hierarchy.Spec, opts server.Options) *testLS {
	t.Helper()
	net := NewTestNet()
	dep, err := hierarchy.Deploy(net, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dep.Close()
		net.Close()
	})
	return &testLS{net: net, dep: dep}
}

// NewTestNet returns a plain in-process network.
func NewTestNet() *transport.Inproc {
	return transport.NewInproc(transport.InprocOptions{})
}

// newManualLS is newTestLS on a network whose clock the test holds: no
// timeout, backoff, cooldown, janitor tick or resync happens in the
// deployment until the test advances the clock. netOpts configures the
// network; its Clock is set here. The clock starts at the wall clock's
// reading, so sightings stamped with time.Now are current.
func newManualLS(t *testing.T, spec hierarchy.Spec, opts server.Options, netOpts transport.InprocOptions) (*testLS, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual(time.Now())
	netOpts.Clock = clk
	net := transport.NewInproc(netOpts)
	dep, err := hierarchy.Deploy(net, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dep.Close()
		net.Close()
	})
	return &testLS{net: net, dep: dep}, clk
}

// quadLeafTickers is how many tickers a quadSpec deployment keeps armed
// without a janitor: each leaf's event-resync ticker. A node's call sweeper
// adds one from its first call with a deadline on.
const quadLeafTickers = 4

func quadSpec() hierarchy.Spec {
	return hierarchy.Spec{
		RootArea: geo.R(0, 0, 1500, 1500),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
}

// newClientAt attaches a client whose entry server is the leaf responsible
// for p.
func (ls *testLS) newClientAt(t *testing.T, id string, p geo.Point, opts client.Options) *client.Client {
	t.Helper()
	entry, ok := ls.dep.LeafFor(p)
	if !ok {
		t.Fatalf("no leaf for %v", p)
	}
	c, err := client.New(ls.net, msg.NodeID(id), entry, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func sightingAt(id string, p geo.Point) core.Sighting {
	return core.Sighting{OID: core.OID(id), T: time.Now(), Pos: p, SensAcc: 5}
}

// ctx returns the context a test's operations run under. Ten seconds of
// wall time cancel it, a guard against a hang, but it carries no deadline:
// on a manual clock a deadline would be read on the clock's time line,
// which a test may advance past it.
func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithCancel(context.Background())
	guard := time.AfterFunc(10*time.Second, cancel)
	t.Cleanup(func() {
		guard.Stop()
		cancel()
	})
	return c
}

func TestRegistrationCreatesForwardingPath(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})

	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Agent() != "r.0" {
		t.Errorf("agent = %s, want r.0", obj.Agent())
	}
	if obj.OfferedAcc() != 10 {
		t.Errorf("offeredAcc = %v, want 10 (achievable 10 <= desAcc 10)", obj.OfferedAcc())
	}

	// The forwarding path must exist on the agent and the root.
	waitFor(t, func() bool {
		root := ls.dep.Servers["r"]
		leaf := ls.dep.Servers["r.0"]
		return root.VisitorCount() == 1 && leaf.VisitorCount() == 1 && leaf.SightingCount() == 1
	}, "forwarding path created")
}

func TestRegistrationRoutedFromDistantEntry(t *testing.T) {
	// The entry server is in the opposite corner of the service area:
	// the request must climb to the root and descend to the correct leaf.
	ls := newTestLS(t, quadSpec(), server.Options{})
	c := ls.newClientAt(t, "client", geo.Pt(1400, 1400), client.Options{})

	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Agent() != "r.0" {
		t.Errorf("agent = %s, want r.0", obj.Agent())
	}
}

func TestRegistrationAccuracyFailure(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{AchievableAcc: 100})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})

	_, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if !errors.Is(err, core.ErrAccuracy) {
		t.Fatalf("err = %v, want ErrAccuracy", err)
	}
	// No records must linger anywhere.
	for id, srv := range ls.dep.Servers {
		if srv.VisitorCount() != 0 {
			t.Errorf("server %s has %d visitors after failed registration", id, srv.VisitorCount())
		}
	}
}

func TestRegistrationOutsideServiceArea(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})
	_, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(5000, 5000)), 10, 50, 3)
	if err == nil {
		t.Fatal("registration outside service area succeeded")
	}
}

func TestLocalUpdate(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})
	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(200, 200))); err != nil {
		t.Fatal(err)
	}
	if obj.Agent() != "r.0" {
		t.Errorf("agent changed on local update: %s", obj.Agent())
	}
	ld, err := c.PosQuery(ctx(t), "o1")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Pos != geo.Pt(200, 200) {
		t.Errorf("position = %v", ld.Pos)
	}
}

func TestHandoverAcrossSiblingLeaves(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	c := ls.newClientAt(t, "client", geo.Pt(700, 100), client.Options{})
	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(700, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Agent() != "r.0" {
		t.Fatalf("initial agent = %s", obj.Agent())
	}

	// Move east across the leaf boundary into r.1's quarter.
	if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(800, 100))); err != nil {
		t.Fatal(err)
	}
	if obj.Agent() != "r.1" {
		t.Fatalf("agent after handover = %s, want r.1", obj.Agent())
	}

	// Old agent must have dropped its records; new agent holds them; the
	// root's forwarding reference must point to the new child.
	oldLeaf := ls.dep.Servers["r.0"]
	newLeaf := ls.dep.Servers["r.1"]
	waitFor(t, func() bool {
		return oldLeaf.VisitorCount() == 0 && oldLeaf.SightingCount() == 0 &&
			newLeaf.VisitorCount() == 1 && newLeaf.SightingCount() == 1
	}, "records moved to new agent")

	// Queries keep working after the handover.
	ld, err := c.PosQuery(ctx(t), "o1")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Pos != geo.Pt(800, 100) {
		t.Errorf("position = %v", ld.Pos)
	}
	// Updates to the new agent succeed.
	if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(820, 120))); err != nil {
		t.Fatal(err)
	}
}

func TestHandoverDeepHierarchy(t *testing.T) {
	// Three levels: r → 4 children → 16 grandchildren. A move across the
	// middle of the area must propagate through the root; a short move
	// within one quadrant involves only that subtree.
	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1600, 1600),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}},
	}
	ls := newTestLS(t, spec, server.Options{})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})
	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Agent() != "r.0.0" {
		t.Fatalf("initial agent = %s", obj.Agent())
	}
	// The registration's CreatePath climbs asynchronously. Let it reach the
	// root first: arriving at r.0 after the handovers below, it would
	// re-create the record they removed there.
	root := ls.dep.Servers["r"]
	waitFor(t, func() bool { return root.VisitorCount() == 1 }, "registration path at the root")

	// Local handover within quadrant r.0 (crossing leaf boundary at 400).
	if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(500, 100))); err != nil {
		t.Fatal(err)
	}
	if obj.Agent() != "r.0.1" {
		t.Fatalf("agent = %s, want r.0.1", obj.Agent())
	}

	// Cross-quadrant handover (crossing the root's midline at 800).
	if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(900, 100))); err != nil {
		t.Fatal(err)
	}
	if obj.Agent() != "r.1.0" {
		t.Fatalf("agent = %s, want r.1.0", obj.Agent())
	}

	// The full forwarding path root → r.1 → r.1.0 must be intact, and
	// the stale branch under r.0 gone.
	waitFor(t, func() bool {
		r0 := ls.dep.Servers["r.0"]
		r01 := ls.dep.Servers["r.0.1"]
		r1 := ls.dep.Servers["r.1"]
		return r0.VisitorCount() == 0 && r01.VisitorCount() == 0 &&
			r1.VisitorCount() == 1 && root.VisitorCount() == 1
	}, "path rewired through root")

	ld, err := c.PosQuery(ctx(t), "o1")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Pos != geo.Pt(900, 100) {
		t.Errorf("position = %v", ld.Pos)
	}
}

func TestPosQueryLocalVsRemote(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	// Object in the south-west quarter.
	cObj := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	if _, err := cObj.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	// CreatePath propagates leaf-to-root asynchronously (one-way
	// messages, Algorithm 6-1); remote queries need the full path.
	waitFor(t, func() bool {
		root := ls.dep.Servers["r"]
		return root.VisitorCount() == 1
	}, "forwarding path at root")
	// Local query: client whose entry server is the object's agent.
	local := ls.newClientAt(t, "local", geo.Pt(50, 50), client.Options{})
	ld, err := local.PosQuery(ctx(t), "o1")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Pos != geo.Pt(100, 100) || ld.Acc != 10 {
		t.Errorf("local ld = %+v", ld)
	}
	// Remote query: entry server in the opposite corner.
	remote := ls.newClientAt(t, "remote", geo.Pt(1400, 1400), client.Options{})
	ld, err = remote.PosQuery(ctx(t), "o1")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Pos != geo.Pt(100, 100) {
		t.Errorf("remote ld = %+v", ld)
	}
	// Unknown object: not found from any entry.
	if _, err := remote.PosQuery(ctx(t), "ghost"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("ghost query err = %v", err)
	}
}

func TestRangeQuerySpanningLeaves(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	truth := oracle.New(ls.dep.Configs)
	// One object per quarter near the center of the root area, and one
	// far away that must not be returned.
	for i, p := range []geo.Point{{X: 700, Y: 700}, {X: 800, Y: 700}, {X: 700, Y: 800}, {X: 800, Y: 800}, {X: 1400, Y: 100}} {
		register(t, owner, truth, sightingAt(fmt.Sprintf("o%d", i), p), 10, 50, 3)
	}
	q := ls.newClientAt(t, "querier", geo.Pt(100, 1400), client.Options{})
	if objs := checkedRange(t, q, truth, core.AreaFromRect(geo.R(650, 650, 850, 850)), 25, 0.5); len(objs) != 4 {
		t.Fatalf("range query returned %d objects: %+v", len(objs), objs)
	}
}

func TestRangeQueryRespectsAccuracyAndOverlap(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{AchievableAcc: 30})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	truth := oracle.New(ls.dep.Configs)
	// Offered accuracy will be 30 (achievable) since desired 10 < 30.
	register(t, owner, truth, sightingAt("coarse", geo.Pt(300, 300)), 10, 100, 3)
	q := ls.newClientAt(t, "querier", geo.Pt(100, 100), client.Options{})
	for _, tc := range []struct {
		what            string
		area            geo.Rect
		reqAcc, overlap float64
		want            int
	}{
		// reqAcc 20 < offered 30: the object is filtered out (Fig. 3, o5).
		{"accuracy filter", geo.R(250, 250, 350, 350), 20, 0.5, 0},
		{"accurate enough", geo.R(250, 250, 350, 350), 30, 0.5, 1},
		// At the very edge of the query area the object overlaps ~50%;
		// a 0.9 threshold excludes it.
		{"overlap filter", geo.R(300, 250, 400, 350), 30, 0.9, 0},
	} {
		if objs := checkedRange(t, q, truth, core.AreaFromRect(tc.area), tc.reqAcc, tc.overlap); len(objs) != tc.want {
			t.Errorf("%s: %+v, want %d objects", tc.what, objs, tc.want)
		}
	}
}

func TestRangeQueryInvalidParams(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	q := ls.newClientAt(t, "querier", geo.Pt(100, 100), client.Options{})
	if _, err := q.RangeQueryRect(ctx(t), geo.R(0, 0, 10, 10), 25, 0); !errors.Is(err, core.ErrBadRequest) {
		t.Errorf("reqOverlap=0 err = %v", err)
	}
	if _, err := q.RangeQueryRect(ctx(t), geo.R(0, 0, 10, 10), 25, 1.5); !errors.Is(err, core.ErrBadRequest) {
		t.Errorf("reqOverlap=1.5 err = %v", err)
	}
	if _, err := q.RangeQueryRect(ctx(t), geo.Rect{}, 25, 0.5); !errors.Is(err, core.ErrBadRequest) {
		t.Errorf("empty area err = %v", err)
	}
}

func TestNeighborQueryInvalidParams(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	register(t, owner, oracle.New(ls.dep.Configs), sightingAt("obj", geo.Pt(900, 900)), 10, 50, 3)
	q := ls.newClientAt(t, "querier", geo.Pt(100, 100), client.Options{})
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		what             string
		p                geo.Point
		reqAcc, nearQual float64
	}{
		{"NaN p", geo.Pt(nan, 100), 50, 0},
		{"+Inf p", geo.Pt(100, inf), 50, 0},
		{"-Inf p", geo.Pt(-inf, 100), 50, 0},
		{"negative reqAcc", geo.Pt(100, 100), -1, 0},
		{"NaN reqAcc", geo.Pt(100, 100), nan, 0},
		{"+Inf reqAcc", geo.Pt(100, 100), inf, 0},
		{"negative nearQual", geo.Pt(100, 100), 50, -1},
		{"NaN nearQual", geo.Pt(100, 100), 50, nan},
		{"+Inf nearQual", geo.Pt(100, 100), 50, inf},
	} {
		if _, err := q.NeighborQuery(ctx(t), tc.p, tc.reqAcc, tc.nearQual); !errors.Is(err, core.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.what, err)
		}
	}
}

func TestNeighborQuery(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	truth := oracle.New(ls.dep.Configs)
	// Nearest is in a different leaf than the query's entry server.
	register(t, owner, truth, sightingAt("near", geo.Pt(760, 760)), 10, 50, 3)
	register(t, owner, truth, sightingAt("mid", geo.Pt(900, 760)), 10, 50, 3)
	register(t, owner, truth, sightingAt("far", geo.Pt(1400, 1400)), 10, 50, 3)

	q := ls.newClientAt(t, "querier", geo.Pt(100, 100), client.Options{})
	if res := checkedNN(t, q, truth, geo.Pt(700, 700), 25, 0); res.Nearest.OID != "near" || len(res.Near) != 0 {
		t.Errorf("nearQual 0: nearest %s, nearObjSet %+v; want near alone", res.Nearest.OID, res.Near)
	}
	// With a generous nearQual the mid object appears in nearObjSet.
	if res := checkedNN(t, q, truth, geo.Pt(700, 700), 25, 200); len(res.Near) != 1 || res.Near[0].OID != "mid" {
		t.Errorf("nearObjSet = %+v, want [mid]", res.Near)
	}
	// r.0 holds nothing, so a query at (1100, 1100) starts without a
	// bound: its first window, of half-side 188.5 m, holds "corner" 255 m
	// away, past the 187.5 m radius, but not "axis", 210 m due east beyond
	// the window's side. The window must grow to find it.
	register(t, owner, truth, sightingAt("corner", geo.Pt(1280, 1280)), 10, 50, 3)
	register(t, owner, truth, sightingAt("axis", geo.Pt(1310, 1100)), 10, 50, 3)
	if res := checkedNN(t, q, truth, geo.Pt(1100, 1100), 25, 0); res.Nearest.OID != "axis" {
		t.Errorf("nearest %s, want axis", res.Nearest.OID)
	}
}

// TestNeighborQueryLocalFastPath: an interior query whose whole collection
// disc lies inside the entry leaf is answered off the leaf's own
// nearest-neighbor cursor without touching the tree, and agrees with the
// checker; a query near the leaf border must fall back to the
// distributed search, starting from the bound its own nearest candidate
// gives, and still agree.
func TestNeighborQueryLocalFastPath(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	truth := oracle.New(ls.dep.Configs)
	for i, p := range []geo.Point{
		geo.Pt(200, 200), geo.Pt(240, 200), geo.Pt(300, 350), geo.Pt(700, 700),
		geo.Pt(760, 760), geo.Pt(1400, 200),
	} {
		register(t, owner, truth, sightingAt(fmt.Sprintf("n%d", i), p), 10, 50, 3)
	}
	leaf := ls.dep.Servers["r.0"]
	q := ls.newClientAt(t, "querier", geo.Pt(100, 100), client.Options{})

	// Interior query: disc(nearest + nearQual + reqAcc) stays inside r.0,
	// so the fast path must fire.
	before := leaf.Metrics().Counter("neighbor_query_local_fast").Value()
	checkedNN(t, q, truth, geo.Pt(230, 210), 25, 60)
	if after := leaf.Metrics().Counter("neighbor_query_local_fast").Value(); after != before+1 {
		t.Errorf("interior query: local fast count %d, want %d", after, before+1)
	}

	// Border query: the nearest candidate's disc crosses into r.3, the
	// fast path must decline and the distributed search must answer,
	// bounded by that candidate.
	before = leaf.Metrics().Counter("neighbor_query_local_fast").Value()
	bounded := leaf.Metrics().Counter("neighbor_query_local_bound").Value()
	checkedNN(t, q, truth, geo.Pt(730, 730), 25, 80)
	if after := leaf.Metrics().Counter("neighbor_query_local_fast").Value(); after != before {
		t.Errorf("border query took the fast path despite a crossing disc")
	}
	if after := leaf.Metrics().Counter("neighbor_query_local_bound").Value(); after != bounded+1 {
		t.Errorf("border query: bounded starts %d, want %d", after, bounded+1)
	}
}

func TestNeighborQueryEmptyService(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	q := ls.newClientAt(t, "querier", geo.Pt(100, 100), client.Options{})
	checkedNN(t, q, oracle.New(ls.dep.Configs), geo.Pt(700, 700), 25, 0)
}

// TestNeighborQueryAtExactObjectPosition: a nearest-neighbor query issued
// from exactly an object's recorded position with nearQual 0 used to
// return not-found — the collection window around the nearest candidate
// had radius 0, so its area was zero and every candidate's overlap degree
// collapsed to 0 (pre-existing since the seed). All three resolution paths
// are pinned, each entering at r.0: the provably-local cursor walk (query
// deep inside the leaf), the distributed search from the bound r.0's own
// candidate gives (query on the leaf's border) and the one without a bound
// (query in r.3, whose nearest r.0 candidate lies past r.0's first
// radius).
func TestNeighborQueryAtExactObjectPosition(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{AchievableAcc: 10})
	owner := ls.newClientAt(t, "nn-owner", geo.Pt(100, 100), client.Options{Timeout: 5 * time.Second})
	truth := oracle.New(ls.dep.Configs)
	entry := ls.dep.Servers["r.0"].Metrics()
	rows := []struct {
		p            geo.Point
		local, bound int64
	}{
		{geo.Pt(300, 300), 1, 0},   // deep inside leaf r.0
		{geo.Pt(740, 740), 0, 1},   // near the r.0 corner
		{geo.Pt(1100, 1100), 0, 0}, // in r.3
	}
	for i, row := range rows {
		register(t, owner, truth, sightingAt(fmt.Sprintf("exact-%d", i), row.p), 10, 100, 3)
	}
	for i, row := range rows {
		local, bound := entry.Counter("neighbor_query_local_fast").Value(), entry.Counter("neighbor_query_local_bound").Value()
		if res := checkedNN(t, owner, truth, row.p, 100, 0); res.Nearest.OID != core.OID(fmt.Sprintf("exact-%d", i)) {
			t.Errorf("nearest at %v = %s, want exact-%d", row.p, res.Nearest.OID, i)
		}
		local, bound = entry.Counter("neighbor_query_local_fast").Value()-local, entry.Counter("neighbor_query_local_bound").Value()-bound
		if local != row.local || bound != row.bound {
			t.Errorf("query at %v: %d local answers and %d bounded starts, want %d and %d", row.p, local, bound, row.local, row.bound)
		}
	}
}

func TestDeregisterRemovesPath(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})
	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Deregister(ctx(t)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		for _, srv := range ls.dep.Servers {
			if srv.VisitorCount() != 0 || srv.SightingCount() != 0 {
				return false
			}
		}
		return true
	}, "all records removed")
	if _, err := c.PosQuery(ctx(t), "o1"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("query after deregister err = %v", err)
	}
}

func TestChangeAcc(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{AchievableAcc: 20})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})
	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 25, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if obj.OfferedAcc() != 25 {
		t.Fatalf("offered = %v, want 25", obj.OfferedAcc())
	}
	// Privacy-motivated coarsening ("I am in town" vs "at the station").
	offered, err := obj.ChangeAcc(ctx(t), 500, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if offered != 500 {
		t.Errorf("offered after coarsening = %v, want 500", offered)
	}
	// Impossible range: server can only achieve 20.
	if _, err := obj.ChangeAcc(ctx(t), 1, 5); !errors.Is(err, core.ErrAccuracy) {
		t.Errorf("err = %v, want ErrAccuracy", err)
	}
	// The old registration stays in force.
	if obj.OfferedAcc() != 500 {
		t.Errorf("offered mutated on failed change: %v", obj.OfferedAcc())
	}
}

// TestSoftStateExpiry: an object that sends no updates is deregistered
// everywhere by the janitor tick that follows its TTL, and not before.
func TestSoftStateExpiry(t *testing.T) {
	const ttl = 200 * time.Millisecond
	ls, clk := newManualLS(t, quadSpec(), server.Options{
		SightingTTL:     ttl,
		JanitorInterval: 50 * time.Millisecond,
	}, transport.InprocOptions{})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})
	if _, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	root := ls.dep.Servers["r"]
	leaf := ls.dep.Servers["r.0"]
	waitFor(t, func() bool { return root.VisitorCount() == 1 }, "the forwarding path")

	// The TTL reached but not passed: the tick finds the object alive.
	clk.Advance(ttl)
	if leaf.VisitorCount() != 1 || leaf.Metrics().Counter("soft_state_expired").Value() != 0 {
		t.Fatal("object expired at its TTL, not after it")
	}
	// Past it, without updates, the object must be deregistered everywhere.
	clk.Advance(50 * time.Millisecond)
	waitFor(t, func() bool {
		for _, srv := range ls.dep.Servers {
			if srv.VisitorCount() != 0 {
				return false
			}
		}
		return true
	}, "soft state expired")
}

// TestSoftStateKeptAliveByUpdates: updates more frequent than the TTL keep
// an object registered across many janitor ticks and several TTLs.
func TestSoftStateKeptAliveByUpdates(t *testing.T) {
	const ttl = 300 * time.Millisecond
	ls, clk := newManualLS(t, quadSpec(), server.Options{
		SightingTTL:     ttl,
		JanitorInterval: 50 * time.Millisecond,
	}, transport.InprocOptions{})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})
	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(100, 100))); err != nil {
			t.Fatal(err)
		}
		clk.Advance(ttl / 3)
	}
	if _, err := c.PosQuery(ctx(t), "o1"); err != nil {
		t.Errorf("object expired despite updates: %v", err)
	}
	leaf := ls.dep.Servers["r.0"]
	if got := leaf.Metrics().Counter("soft_state_expired").Value(); got != 0 {
		t.Errorf("soft_state_expired = %d with an update every TTL/3", got)
	}
}

func TestDistanceBasedUpdateProtocol(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{AchievableAcc: 25})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})
	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 25, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A 10 m move is within the offered accuracy: no update on the wire.
	sent, err := obj.MaybeUpdate(ctx(t), sightingAt("o1", geo.Pt(110, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if sent {
		t.Error("update sent although movement within accuracy")
	}
	// A 30 m move exceeds it.
	sent, err = obj.MaybeUpdate(ctx(t), sightingAt("o1", geo.Pt(130, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if !sent {
		t.Error("update not sent although movement exceeded accuracy")
	}
}

func TestUpdateUnknownObjectRejected(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	c := ls.newClientAt(t, "client", geo.Pt(100, 100), client.Options{})
	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Deregister(ctx(t)); err != nil {
		t.Fatal(err)
	}
	err = obj.Update(ctx(t), sightingAt("o1", geo.Pt(120, 100)))
	if !errors.Is(err, core.ErrNotFound) {
		t.Errorf("update after deregister err = %v", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	if !eventually(cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// eventually polls cond until it holds or five seconds of wall time pass,
// and reports whether it held. It waits for asynchronous work — messages
// climbing the tree, a dispatcher catching up — that signals nothing a
// test could wait on; the polling interval is this package's one sleep.
func eventually(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// TestPathMessageResentUntilAcked loses a leaf's CreatePath on its way to
// the root: no goroutine waits for the acknowledgement, so the swept
// timeout itself has to start the re-send, on the network's clock. A
// message that spends its budget is counted once, leaves no in-flight
// entry behind, and is re-asserted every PathReassertIntervalForTest until
// the healed link delivers it. A budget of one attempt is one tracked try
// on the same path, so its single loss is counted too.
func TestPathMessageResentUntilAcked(t *testing.T) {
	const (
		perTry     = 10 * time.Millisecond
		sweep      = 2 * time.Millisecond
		maxBackoff = 2 * time.Millisecond
		// The leaf tickers plus r.0's sweeper, which its first try arms.
		idle = quadLeafTickers + 1
	)
	for _, attempts := range []int{3, 1} {
		t.Run(fmt.Sprintf("attempts=%d", attempts), func(t *testing.T) {
			var lose atomic.Int64      // CreatePaths to the root still to be lost
			sent := make(chan bool, 8) // per CreatePath to the root: was it lost
			ls, clk := newManualLS(t, quadSpec(), server.Options{
				PathRetry: transport.RetryPolicy{
					MaxAttempts:   attempts,
					BaseBackoff:   time.Millisecond,
					MaxBackoff:    maxBackoff,
					PerTryTimeout: perTry,
				},
			}, transport.InprocOptions{
				SweepInterval: sweep,
				FaultPlan: func(_, to msg.NodeID, env msg.Envelope) transport.Fault {
					if _, ok := env.Msg.(msg.PathBatch); !ok || to != "r" {
						return transport.Fault{}
					}
					lost := lose.Add(-1) >= 0
					sent <- lost
					return transport.Fault{Drop: lost}
				},
			})
			root := ls.dep.Servers["r"]
			leaf := ls.dep.Servers["r.0"]
			owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
			failed := leaf.Metrics().Counter("path_propagation_failed")
			reasserted := leaf.Metrics().Counter("path_reasserted")

			// loseTries sees n tries of one message lost. Each is swept on
			// the Advance past its deadline; the timer the sweep arms — the
			// backoff, or the re-assertion once the budget is spent — is
			// awaited, and a backoff is advanced past to send the next try.
			loseTries := func(n int) {
				t.Helper()
				for i := 1; i <= n; i++ {
					if !<-sent {
						t.Fatalf("try %d delivered, want it lost", i)
					}
					clk.Advance(perTry + sweep)
					clk.BlockUntil(idle + 1)
					if i < attempts {
						clk.Advance(maxBackoff)
					}
				}
			}

			// All attempts but the last lost: the last arrives.
			lose.Store(int64(attempts - 1))
			if _, err := owner.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3); err != nil {
				t.Fatal(err)
			}
			loseTries(attempts - 1)
			if <-sent {
				t.Fatal("the last try was lost, want it delivered")
			}
			waitFor(t, func() bool { return root.VisitorCount() == 1 }, "the last CreatePath to reach the root")
			// Acknowledged before the clock moves on: an ack still on its
			// way would be swept by the next Advance and spend o1's budget.
			waitFor(t, func() bool { return leaf.PendingCalls() == 0 }, "the last try's acknowledgement")
			if got := failed.Value(); got != 0 {
				t.Errorf("path_propagation_failed = %d after a delivered path", got)
			}

			// Every attempt lost: the message is given up, counted once,
			// and nothing stays in flight while the re-assertion waits.
			lose.Store(int64(attempts))
			if _, err := owner.Register(ctx(t), sightingAt("o2", geo.Pt(120, 100)), 10, 50, 3); err != nil {
				t.Fatal(err)
			}
			loseTries(attempts)
			if got := failed.Value(); got != 1 {
				t.Errorf("path_propagation_failed = %d, want 1", got)
			}
			if got := leaf.PendingCalls(); got != 0 {
				t.Errorf("%d in-flight entries while the re-assertion waits", got)
			}
			if got := root.VisitorCount(); got != 1 {
				t.Errorf("root holds %d paths, want only o1's", got)
			}

			// The link heals. Nothing is re-sent a nanosecond short of the
			// cadence; at the cadence the re-sent message is delivered.
			clk.Advance(server.PathReassertIntervalForTest - time.Nanosecond)
			if got := reasserted.Value(); got != 0 {
				t.Fatalf("path_reasserted = %d before the cadence", got)
			}
			clk.Advance(time.Nanosecond)
			if got := reasserted.Value(); got != 1 {
				t.Fatalf("path_reasserted = %d at the cadence, want 1", got)
			}
			if <-sent {
				t.Fatal("the re-sent CreatePath was lost, want it delivered")
			}
			waitFor(t, func() bool { return root.VisitorCount() == 2 }, "the re-sent CreatePath to reach the root")
			waitFor(t, func() bool { return leaf.PendingCalls() == 0 }, "the re-send's acknowledgement")
			// Acknowledged: no further re-send, and still one failure.
			clk.Advance(server.PathReassertIntervalForTest)
			if got, fails := reasserted.Value(), failed.Value(); got != 1 || fails != 1 {
				t.Errorf("after the acknowledgement path_reasserted = %d, path_propagation_failed = %d; want 1, 1", got, fails)
			}
		})
	}
}

// TestStrayRegisterRepliesRefused: a server originates no registration, so
// a RegisterRes or RegisterFailed sent to one is refused as a bad request
// and reaches none of its pending queries, even one whose operation id it
// carries. A FaultPlan holds the agent's answer to a position query while
// the strays arrive at the query's entry server.
func TestStrayRegisterRepliesRefused(t *testing.T) {
	held := make(chan struct{}, 1)
	ls, clk := newManualLS(t, quadSpec(), server.Options{}, transport.InprocOptions{
		FaultPlan: func(_, to msg.NodeID, env msg.Envelope) transport.Fault {
			if _, ok := env.Msg.(msg.PosQueryRes); ok && to == "r.0" {
				held <- struct{}{}
				return transport.Fault{Delay: time.Second}
			}
			return transport.Fault{}
		},
	})
	p := geo.Pt(1200, 1200)
	owner := ls.newClientAt(t, "owner", p, client.Options{})
	truth := oracle.New(ls.dep.Configs)
	register(t, owner, truth, sightingAt("o1", p), 10, 50, 3)
	waitFor(t, func() bool { return ls.dep.RootVisitorCount() == 1 }, "the forwarding path")

	querier := ls.newClientAt(t, "querier", geo.Pt(100, 100), client.Options{})
	done := make(chan error, 1)
	go func() {
		ld, err := querier.PosQuery(ctx(t), "o1")
		done <- errors.Join(err, truth.CheckPos("o1", ld, err))
	}()
	<-held

	// The entry server's first pending operation has id 1.
	probe := attachProbe(t, ls.net, "stray")
	for opID := uint64(1); opID <= 4; opID++ {
		for _, stray := range []msg.Message{
			msg.RegisterRes{OpID: opID, Agent: "r.3"},
			msg.RegisterFailed{OpID: opID, Server: "r.3"},
		} {
			if _, err := probe.Call(ctx(t), "r.0", stray); !errors.Is(err, core.ErrBadRequest) {
				t.Fatalf("stray %T for op %d: err = %v, want bad request", stray, opID, err)
			}
		}
	}
	clk.Advance(time.Second)
	if err := <-done; err != nil {
		t.Fatalf("position query after the strays: %v", err)
	}
}
