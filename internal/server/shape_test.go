package server_test

import (
	"fmt"
	"runtime"
	"sync"
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

// envelopeCounter counts every envelope a network carries and keeps the
// tracked calls whose reply it has not carried yet. Its plan passes every
// delivery through unchanged and wakes settle.
type envelopeCounter struct {
	mu    sync.Mutex
	sent  int
	open  map[callKey]bool
	moved chan struct{} // made by a waiting settle, closed at the next envelope
}

// callKey names a tracked call: its caller and the caller's correlation id.
type callKey struct {
	caller msg.NodeID
	corr   uint64
}

func newEnvelopeCounter() *envelopeCounter {
	return &envelopeCounter{open: make(map[callKey]bool)}
}

func (c *envelopeCounter) plan(from, to msg.NodeID, env msg.Envelope) transport.Fault {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sent++
	switch {
	case env.Reply:
		delete(c.open, callKey{to, env.CorrID})
	case env.CorrID != 0:
		c.open[callKey{from, env.CorrID}] = true
	}
	if c.moved != nil {
		close(c.moved)
		c.moved = nil
	}
	return transport.Fault{}
}

// settle waits until every tracked call the network carried has its reply
// and cond, if not nil, holds, and returns the envelope count then. It re-checks after
// each envelope, so it waits on the deployment's own messages, not on time:
// a server's handler sends everything it forwards before it returns, and
// the call that brought the request stays open until then, so once no call
// is open no handler of a tracked request is still running.
func (c *envelopeCounter) settle(t *testing.T, what string, cond func() bool) int {
	t.Helper()
	return c.settleBy(t, what, ctx(t).Done(), cond)
}

// settleBy is settle with the caller's guard: it fails the test once guard
// is closed.
func (c *envelopeCounter) settleBy(t *testing.T, what string, guard <-chan struct{}, cond func() bool) int {
	t.Helper()
	for {
		c.mu.Lock()
		idle, n := len(c.open) == 0, c.sent
		c.mu.Unlock()
		if idle && (cond == nil || cond()) {
			return n
		}
		c.mu.Lock()
		if c.sent != n {
			// An envelope went by while cond ran: look again.
			c.mu.Unlock()
			continue
		}
		if c.moved == nil {
			c.moved = make(chan struct{})
		}
		moved := c.moved
		c.mu.Unlock()
		select {
		case <-moved:
		case <-guard:
			t.Fatalf("%s: not settled after %d envelopes", what, n)
		}
	}
}

// shapeSide is the side of the square root area of every tree shape.
const shapeSide = 1600.0

// treeShapes are Section 7's tree shapes: one, two and three levels of
// 2×2 children, and one level of 4×4.
var treeShapes = []struct {
	name            string
	levels          []hierarchy.Level
	servers, leaves int
}{
	{"1x(2x2)", []hierarchy.Level{{Rows: 2, Cols: 2}}, 5, 4},
	{"1x(4x4)", []hierarchy.Level{{Rows: 4, Cols: 4}}, 17, 16},
	{"2x(2x2)", []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}}, 21, 16},
	{"3x(2x2)", []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}}, 85, 64},
}

// The operations' places, on a tree whose leaves are leaf metres wide. The
// querier enters at the corner leaf around (50, 50).
var (
	farCorner = geo.Pt(1550, 1550)

	shapeRangeAreas = map[string]func(leaf float64) (area geo.Rect, objects []geo.Point){
		// Inside the far corner leaf.
		"range1": func(float64) (geo.Rect, []geo.Point) {
			return geo.R(1530, 1530, 1570, 1570), []geo.Point{farCorner}
		},
		// Across the far corner leaf's left edge, to the sibling beside it.
		"range2": func(leaf float64) (geo.Rect, []geo.Point) {
			x := shapeSide - leaf
			return geo.R(x-20, 1530, x+20, 1570), []geo.Point{geo.Pt(x-10, 1550), geo.Pt(x+10, 1550)}
		},
		// On the root's midpoint, where four leaves meet.
		"range4": func(float64) (geo.Rect, []geo.Point) {
			return geo.R(780, 780, 820, 820),
				[]geo.Point{geo.Pt(790, 790), geo.Pt(810, 790), geo.Pt(790, 810), geo.Pt(810, 810)}
		},
	}

	// Each handover starts just left of a leaf edge in the bottom row and
	// crosses it: the first leaf's right edge parts siblings, the second's
	// cousins.
	shapeHandovers = map[string]func(leaf float64) (from, to geo.Point){
		"sibling": func(leaf float64) (geo.Point, geo.Point) { return geo.Pt(leaf-5, 50), geo.Pt(leaf+5, 50) },
		"cousin":  func(leaf float64) (geo.Point, geo.Point) { return geo.Pt(2*leaf-5, 50), geo.Pt(2*leaf+5, 50) },
	}
)

// leafSide is the side of a shape's leaves.
func leafSide(levels []hierarchy.Level) float64 {
	leaf := shapeSide
	for _, l := range levels {
		leaf /= float64(l.Cols)
	}
	return leaf
}

// TestShapeMessageCounts runs the paper's operations on four tree shapes
// and asserts the envelopes each one puts on the network, exactly. These
// are Section 7's shapes — remote cost grows with the tree's height, local
// queries stay cheap, a warm agent cache skips the tree, a range query
// visits the leaves its area touches — as counts rather than times: under
// a fixed per-hop latency a time is the hop count times the latency.
//
// The counts follow from each algorithm's hop rule. A client's call is two
// envelopes, request and reply. A server passes a query or a handover on
// as a tracked call, so each link it crosses costs two more: the message
// and its acknowledgement (a handover's response rides back as the reply).
// A leaf that answers for another entry server sends one envelope straight
// to it. With d the depth of the leaves, querying from the corner leaf:
//
//   - a local position query is the client's call alone: 2;
//   - a remote position query to the opposite corner climbs d links to the
//     root, descends d to the agent, and the agent answers the entry:
//     2 + 4d + 1 (Algorithm 6-4);
//   - with the entry's agent cache warm it is one call to the agent: 2 + 2
//     (Section 6.5), and the entry leaf no longer traverses the tree;
//   - a range query is forwarded once to every server on its way up and to
//     every server below the top of its climb whose area its enlarged area
//     touches, and each leaf answering for the entry sends its partial
//     result: 2 + 2·forwards + remote leaves (Algorithm 6-5);
//   - a handover whose old and new agent meet at the ancestor h levels up
//     climbs h links and descends h, each a call: 2 + 4h (Algorithm 6-3),
//     6 between siblings and 10 between cousins.
//
// Every answer is checked against the oracle. The deployment runs on a
// clock the test never advances, so nothing timed adds an envelope.
//
// TestOperationAllocBudgets runs the same operations on the same shapes and
// pins what each allocates.
func TestShapeMessageCounts(t *testing.T) {

	rows := []struct {
		shape, op string
		msgs      int
		// traversals is, for a position query, how many times the entry
		// leaf sent it up the tree (its pos_query_remote count).
		traversals int
		// leaves is, for a range query, how many leaves answered.
		leaves int
	}{
		// d = 1.
		{shape: "1x(2x2)", op: "local", msgs: 2},
		{shape: "1x(2x2)", op: "remote", msgs: 7, traversals: 1},
		{shape: "1x(2x2)", op: "warm", msgs: 4},
		{shape: "1x(2x2)", op: "range1", msgs: 7, leaves: 1},           // forwards: r, far leaf
		{shape: "1x(2x2)", op: "range2", msgs: 10, leaves: 2},          // r, 2 leaves
		{shape: "1x(2x2)", op: "range4", msgs: 2 + 2*4 + 3, leaves: 4}, // r, 3 leaves; the entry answers itself
		{shape: "1x(2x2)", op: "sibling", msgs: 6},                     // h = 1
		{shape: "1x(4x4)", op: "local", msgs: 2},
		{shape: "1x(4x4)", op: "remote", msgs: 7, traversals: 1},
		{shape: "1x(4x4)", op: "warm", msgs: 4},
		{shape: "1x(4x4)", op: "range1", msgs: 7, leaves: 1},           // r, far leaf
		{shape: "1x(4x4)", op: "range2", msgs: 10, leaves: 2},          // r, 2 leaves
		{shape: "1x(4x4)", op: "range4", msgs: 2 + 2*5 + 4, leaves: 4}, // r, 4 leaves
		{shape: "1x(4x4)", op: "sibling", msgs: 6},                     // h = 1
		{shape: "2x(2x2)", op: "local", msgs: 2},                       // d = 2
		{shape: "2x(2x2)", op: "remote", msgs: 11, traversals: 1},
		{shape: "2x(2x2)", op: "warm", msgs: 4},
		{shape: "2x(2x2)", op: "range1", msgs: 11, leaves: 1},          // r.0, r, r.3, far leaf
		{shape: "2x(2x2)", op: "range2", msgs: 14, leaves: 2},          // r.0, r, r.3, 2 leaves
		{shape: "2x(2x2)", op: "range4", msgs: 2 + 2*9 + 4, leaves: 4}, // r.0 and its leaf, r, 3 × (level-1 server, leaf)
		{shape: "2x(2x2)", op: "sibling", msgs: 6},                     // h = 1
		{shape: "2x(2x2)", op: "cousin", msgs: 10},                     // h = 2, across the root
		{shape: "3x(2x2)", op: "local", msgs: 2},                       // d = 3
		{shape: "3x(2x2)", op: "remote", msgs: 15, traversals: 1},
		{shape: "3x(2x2)", op: "warm", msgs: 4},
		{shape: "3x(2x2)", op: "range1", msgs: 15, leaves: 1},           // 3 up, 3 down
		{shape: "3x(2x2)", op: "range2", msgs: 18, leaves: 2},           // 3 up, 2 down, 2 leaves
		{shape: "3x(2x2)", op: "range4", msgs: 2 + 2*14 + 4, leaves: 4}, // r.0.0, r.0 and its 2 below, r, 3 × 3 below
		{shape: "3x(2x2)", op: "sibling", msgs: 6},                      // h = 1
		{shape: "3x(2x2)", op: "cousin", msgs: 10},                      // h = 2, inside r.0
	}

	// One deployment per shape, its rows in table order: the warm query
	// reuses what the remote one taught the entry's agent cache.
	for _, sh := range treeShapes {
		t.Run(sh.name, func(t *testing.T) {
			spec := hierarchy.Spec{RootArea: geo.R(0, 0, shapeSide, shapeSide), Levels: sh.levels}
			counter := newEnvelopeCounter()
			ls, _ := newManualLS(t, spec, server.Options{EnableAgentCache: true},
				transport.InprocOptions{FaultPlan: counter.plan})
			if got := len(ls.dep.Servers); got != sh.servers {
				t.Fatalf("servers = %d, want %d", got, sh.servers)
			}
			if got := len(ls.dep.Leaves()); got != sh.leaves {
				t.Fatalf("leaves = %d, want %d", got, sh.leaves)
			}
			leaf := leafSide(sh.levels)

			leafFor := func(p geo.Point) msg.NodeID {
				t.Helper()
				id, ok := ls.dep.LeafFor(p)
				if !ok {
					t.Fatalf("no leaf for %v", p)
				}
				return id
			}
			entry := leafFor(geo.Pt(50, 50))
			entrySrv := ls.dep.Servers[entry]
			root := ls.dep.Servers[ls.dep.Root()]

			// Register every object the rows use, each at its own leaf.
			truth := oracle.New(ls.dep.Configs)
			owner := ls.newClientAt(t, "owner", geo.Pt(50, 50), client.Options{})
			objects := map[string]*client.TrackedObject{}
			add := func(id string, p geo.Point) {
				owner.SetEntry(leafFor(p))
				objects[id] = register(t, owner, truth, sightingAt(id, p), 10, 50, 3)
			}
			add("near", geo.Pt(60, 60))
			add("far", farCorner)
			for _, op := range []string{"range2", "range4"} {
				_, pts := shapeRangeAreas[op](leaf)
				for i, p := range pts {
					add(fmt.Sprintf("%s-%d", op, i), p)
				}
			}
			for _, op := range []string{"sibling", "cousin"} {
				from, _ := shapeHandovers[op](leaf)
				add(op, from)
			}
			counter.settle(t, "forwarding paths at the root", func() bool {
				return root.VisitorCount() == len(objects)
			})
			querier := ls.newClientAt(t, "querier", geo.Pt(50, 50), client.Options{})

			for _, row := range rows {
				if row.shape != sh.name {
					continue
				}
				t.Run(row.op, func(t *testing.T) {
					before := counter.settle(t, "before "+row.op, nil)
					traversed := entrySrv.Metrics().Counter("pos_query_remote").Value()
					switch row.op {
					case "local", "remote", "warm":
						oid := core.OID("far")
						if row.op == "local" {
							oid = "near"
						}
						checkedPos(t, querier, truth, oid)
					case "range1", "range2", "range4":
						rect, _ := shapeRangeAreas[row.op](leaf)
						area := core.AreaFromRect(rect)
						res, err := querier.RangeQueryFull(ctx(t), area, 10, 0.5)
						if err != nil || res.Partial {
							t.Fatalf("range query over %v: partial=%v err=%v", rect, res.Partial, err)
						}
						if cerr := truth.CheckRange(area, 10, 0.5, res); cerr != nil {
							t.Fatal(cerr)
						}
						if len(res.Objs) == 0 {
							t.Fatalf("range query over %v found nothing", rect)
						}
						if res.Servers != row.leaves {
							t.Errorf("leaves visited = %d, want %d", res.Servers, row.leaves)
						}
					case "sibling", "cousin":
						from, to := shapeHandovers[row.op](leaf)
						obj := objects[row.op]
						if got, want := obj.Agent(), leafFor(from); got != want {
							t.Fatalf("agent before the handover = %s, want %s", got, want)
						}
						if err := obj.Update(ctx(t), sightingAt(row.op, to)); err != nil {
							t.Fatal(err)
						}
						truth.Track(obj)
						if got, want := obj.Agent(), leafFor(to); got != want {
							t.Fatalf("agent after the handover = %s, want %s", got, want)
						}
					default:
						t.Fatalf("unknown operation %q", row.op)
					}
					after := counter.settle(t, "after "+row.op, nil)
					if got := after - before; got != row.msgs {
						t.Errorf("envelopes = %d, want %d", got, row.msgs)
					}
					if got := entrySrv.Metrics().Counter("pos_query_remote").Value() - traversed; got != int64(row.traversals) {
						t.Errorf("tree traversals = %d, want %d", got, row.traversals)
					}
				})
			}

			// Every object, the handed-over ones included, is where the
			// truth has it.
			for id := range objects {
				checkedPos(t, querier, truth, core.OID(id))
			}
		})
	}
}

// TestOperationAllocBudgets pins what each of the paper's operations
// allocates, summed over the whole deployment — client, network and every
// server the operation reaches — on the tree shapes of
// TestShapeMessageCounts, on a clock that never moves. A row runs its
// operation a few times unmeasured, then allocRounds times between two
// runtime.MemStats readings, waiting after each until no tracked call is
// open; allocs and bytes are its ceilings per operation. Area and agent
// caches are on, as in the benchmark's city: a range query after the first
// goes straight to the leaves the entry has learnt, a position query's
// "warm" row straight to the agent.
//
// Each ceiling is one allocation and 100 B above the lowest its row
// measured over -count 20, and above the highest. A row moves by a fraction
// of an allocation across runs: a pooled buffer (a range scan's) refilled
// after a GC, a wait in settle. Once in twenty runs some row also takes a
// one-off ≈ 5.5 kB allocation, a map growing somewhere in the deployment,
// ≈ 90 B/op over its rounds. A change that lowers a row lowers its
// ceiling; one that raises it says why.
func TestOperationAllocBudgets(t *testing.T) {
	if server.RaceEnabledForTest {
		t.Skip("the race detector allocates")
	}
	const allocRounds, warmups = 64, 4
	budgets := []struct {
		shape, op     string
		allocs, bytes float64
	}{
		{"1x(2x2)", "update", 11, 716},
		{"1x(2x2)", "local", 9, 580},
		{"1x(2x2)", "remote", 41, 2641},
		{"1x(2x2)", "warm", 23, 1388},
		{"1x(2x2)", "range1", 31, 1980},
		{"1x(2x2)", "range2", 48, 3028},
		{"1x(2x2)", "range4", 64, 4124},
		{"1x(2x2)", "nn", 69, 4460},
		{"1x(2x2)", "nnborder", 34, 2188},
		{"1x(2x2)", "sibling", 45, 3100},
		{"1x(4x4)", "update", 11, 716},
		{"1x(4x4)", "local", 9, 580},
		{"1x(4x4)", "remote", 41, 2641},
		{"1x(4x4)", "warm", 23, 1388},
		{"1x(4x4)", "range1", 31, 1980},
		{"1x(4x4)", "range2", 48, 3028},
		{"1x(4x4)", "range4", 79, 5044},
		{"1x(4x4)", "nn", 82, 5252},
		{"1x(4x4)", "nnborder", 34, 2188},
		{"1x(4x4)", "sibling", 45, 3100},
		{"2x(2x2)", "update", 11, 716},
		{"2x(2x2)", "local", 9, 580},
		{"2x(2x2)", "remote", 65, 3841},
		{"2x(2x2)", "warm", 23, 1388},
		{"2x(2x2)", "range1", 31, 1980},
		{"2x(2x2)", "range2", 48, 3028},
		{"2x(2x2)", "range4", 79, 5044},
		{"2x(2x2)", "nn", 82, 5252},
		{"2x(2x2)", "nnborder", 34, 2188},
		{"2x(2x2)", "sibling", 45, 3100},
		{"2x(2x2)", "cousin", 77, 5276},
		{"3x(2x2)", "update", 11, 716},
		{"3x(2x2)", "local", 9, 580},
		{"3x(2x2)", "remote", 89, 5041},
		{"3x(2x2)", "warm", 23, 1388},
		{"3x(2x2)", "range1", 31, 1980},
		{"3x(2x2)", "range2", 48, 3028},
		{"3x(2x2)", "range4", 79, 5044},
		{"3x(2x2)", "nn", 82, 5252},
		{"3x(2x2)", "nnborder", 34, 2188},
		{"3x(2x2)", "sibling", 45, 3100},
		{"3x(2x2)", "cousin", 77, 5276},
	}

	for _, sh := range treeShapes {
		t.Run(sh.name, func(t *testing.T) {
			spec := hierarchy.Spec{RootArea: geo.R(0, 0, shapeSide, shapeSide), Levels: sh.levels}
			counter := newEnvelopeCounter()
			ls, _ := newManualLS(t, spec, server.Options{EnableAreaCache: true, EnableAgentCache: true},
				transport.InprocOptions{FaultPlan: counter.plan})
			leaf := leafSide(sh.levels)
			leafFor := func(p geo.Point) msg.NodeID {
				t.Helper()
				id, ok := ls.dep.LeafFor(p)
				if !ok {
					t.Fatalf("no leaf for %v", p)
				}
				return id
			}
			entrySrv := ls.dep.Servers[leafFor(geo.Pt(50, 50))]
			root := ls.dep.Servers[ls.dep.Root()]

			owner := ls.newClientAt(t, "owner", geo.Pt(50, 50), client.Options{})
			objects := map[core.OID]*client.TrackedObject{}
			add := func(id core.OID, p geo.Point) {
				owner.SetEntry(leafFor(p))
				obj, err := owner.Register(ctx(t), sightingAt(string(id), p), 10, 50, 3)
				if err != nil {
					t.Fatalf("register %s: %v", id, err)
				}
				objects[id] = obj
			}
			add("near", geo.Pt(60, 60))
			add("far", farCorner)
			// One object per remote position query, in the far corner
			// leaf below range1's area: each is unknown to the entry's
			// agent cache until the "remote" row asks for it.
			farIDs := make([]core.OID, warmups+allocRounds)
			for i := range farIDs {
				farIDs[i] = core.OID(fmt.Sprintf("far-%d", i))
				add(farIDs[i], geo.Pt(1550, 1500-float64(i)))
			}
			for _, op := range []string{"range2", "range4"} {
				_, pts := shapeRangeAreas[op](leaf)
				for i, p := range pts {
					add(core.OID(fmt.Sprintf("%s-%d", op, i)), p)
				}
			}
			handoverEnds := map[string][2]core.Sighting{}
			for _, op := range []string{"sibling", "cousin"} {
				from, to := shapeHandovers[op](leaf)
				add(core.OID(op), from)
				handoverEnds[op] = [2]core.Sighting{sightingAt(op, from), sightingAt(op, to)}
			}
			counter.settle(t, "forwarding paths at the root", func() bool {
				return root.VisitorCount() == len(objects)
			})
			querier := ls.newClientAt(t, "querier", geo.Pt(50, 50), client.Options{})
			c := ctx(t)

			found := func(_ core.LocationDescriptor, err error) error { return err }
			ranged := func(area core.Area) func(int) error {
				return func(int) error {
					res, err := querier.RangeQueryFull(c, area, 10, 0.5)
					if err == nil && (res.Partial || len(res.Objs) == 0) {
						err = fmt.Errorf("partial=%v, %d objects", res.Partial, len(res.Objs))
					}
					return err
				}
			}
			handover := func(op string) func(int) error {
				obj, ends := objects[core.OID(op)], handoverEnds[op]
				agents := [2]msg.NodeID{leafFor(ends[0].Pos), leafFor(ends[1].Pos)}
				return func(i int) error {
					// Even rounds cross to the far side, odd ones back.
					s := ends[(i+1)%2]
					s.T = time.Now()
					if err := obj.Update(c, s); err != nil {
						return err
					}
					if got, want := obj.Agent(), agents[(i+1)%2]; got != want {
						return fmt.Errorf("agent %s, want %s", got, want)
					}
					return nil
				}
			}
			near := objects["near"]
			opFor := func(op string) func(i int) error {
				switch op {
				case "update":
					return func(i int) error {
						return near.Update(c, core.Sighting{OID: "near", T: time.Now(), Pos: geo.Pt(60+float64(i%2), 60), SensAcc: 5})
					}
				case "local":
					return func(int) error { return found(querier.PosQuery(c, "near")) }
				case "remote", "warm":
					return func(i int) error { return found(querier.PosQuery(c, farIDs[i])) }
				case "range1", "range2", "range4":
					rect, _ := shapeRangeAreas[op](leaf)
					return ranged(core.AreaFromRect(rect))
				case "nn":
					return func(int) error {
						_, err := querier.NeighborQuery(c, geo.Pt(800, 800), 10, 5)
						return err
					}
				case "nnborder":
					// 25 m left of the sibling handover's object, which
					// waits at its start on the entry leaf's right edge
					// until the sibling row: the entry leaf's own
					// candidate bounds the search, but the answer's disc
					// crosses into the leaf beside it.
					return func(int) error {
						res, err := querier.NeighborQuery(c, geo.Pt(leaf-30, 50), 10, 5)
						if err == nil && res.Nearest.OID != "sibling" {
							err = fmt.Errorf("nearest %q, want sibling", res.Nearest.OID)
						}
						return err
					}
				case "sibling", "cousin":
					return handover(op)
				}
				t.Fatalf("unknown operation %q", op)
				return nil
			}

			for _, b := range budgets {
				if b.shape != sh.name {
					continue
				}
				t.Run(b.op, func(t *testing.T) {
					op := opFor(b.op)
					guard := c.Done()
					run := func(i int) {
						if err := op(i); err != nil {
							t.Fatalf("%s round %d: %v", b.op, i, err)
						}
						counter.settleBy(t, b.op, guard, nil)
					}
					for i := 0; i < warmups; i++ {
						run(i)
					}
					traversed := entrySrv.Metrics().Counter("pos_query_remote").Value()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := warmups; i < warmups+allocRounds; i++ {
						run(i)
					}
					runtime.ReadMemStats(&after)
					allocs := float64(after.Mallocs-before.Mallocs) / allocRounds
					bytes := float64(after.TotalAlloc-before.TotalAlloc) / allocRounds
					t.Logf("%s %s: %.1f allocs/op, %.0f B/op", sh.name, b.op, allocs, bytes)
					// The remote row must traverse the tree every time,
					// the warm one never.
					wantTraversals := 0
					if b.op == "remote" {
						wantTraversals = allocRounds
					}
					if got := entrySrv.Metrics().Counter("pos_query_remote").Value() - traversed; got != int64(wantTraversals) {
						t.Errorf("tree traversals = %d, want %d", got, wantTraversals)
					}
					if allocs > b.allocs {
						t.Errorf("%.1f allocs/op, ceiling %.0f", allocs, b.allocs)
					}
					if bytes > b.bytes {
						t.Errorf("%.0f B/op, ceiling %.0f", bytes, b.bytes)
					}
				})
			}
		})
	}
}
