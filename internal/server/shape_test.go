package server_test

import (
	"fmt"
	"sync"
	"testing"

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
	moved chan struct{} // closed and replaced at every envelope
}

// callKey names a tracked call: its caller and the caller's correlation id.
type callKey struct {
	caller msg.NodeID
	corr   uint64
}

func newEnvelopeCounter() *envelopeCounter {
	return &envelopeCounter{open: make(map[callKey]bool), moved: make(chan struct{})}
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
	close(c.moved)
	c.moved = make(chan struct{})
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
	guard := ctx(t).Done()
	for {
		c.mu.Lock()
		idle, n, moved := len(c.open) == 0, c.sent, c.moved
		c.mu.Unlock()
		if idle && (cond == nil || cond()) {
			return n
		}
		select {
		case <-moved:
		case <-guard:
			t.Fatalf("%s: not settled after %d envelopes", what, n)
		}
	}
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
func TestShapeMessageCounts(t *testing.T) {
	const side = 1600.0
	shapes := []struct {
		name            string
		levels          []hierarchy.Level
		servers, leaves int
	}{
		{"1x(2x2)", []hierarchy.Level{{Rows: 2, Cols: 2}}, 5, 4},
		{"1x(4x4)", []hierarchy.Level{{Rows: 4, Cols: 4}}, 17, 16},
		{"2x(2x2)", []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}}, 21, 16},
		{"3x(2x2)", []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}}, 85, 64},
	}
	// The operations' places, on a tree whose leaves are leaf metres
	// wide. The querier enters at the corner leaf around (50, 50).
	far := geo.Pt(1550, 1550)
	rangeAreas := map[string]func(leaf float64) (area geo.Rect, objects []geo.Point){
		// Inside the far corner leaf.
		"range1": func(float64) (geo.Rect, []geo.Point) {
			return geo.R(1530, 1530, 1570, 1570), []geo.Point{far}
		},
		// Across the far corner leaf's left edge, to the sibling beside it.
		"range2": func(leaf float64) (geo.Rect, []geo.Point) {
			x := side - leaf
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
	handovers := map[string]func(leaf float64) (from, to geo.Point){
		"sibling": func(leaf float64) (geo.Point, geo.Point) { return geo.Pt(leaf-5, 50), geo.Pt(leaf+5, 50) },
		"cousin":  func(leaf float64) (geo.Point, geo.Point) { return geo.Pt(2*leaf-5, 50), geo.Pt(2*leaf+5, 50) },
	}

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
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			spec := hierarchy.Spec{RootArea: geo.R(0, 0, side, side), Levels: sh.levels}
			counter := newEnvelopeCounter()
			ls, _ := newManualLS(t, spec, server.Options{EnableAgentCache: true},
				transport.InprocOptions{FaultPlan: counter.plan})
			if got := len(ls.dep.Servers); got != sh.servers {
				t.Fatalf("servers = %d, want %d", got, sh.servers)
			}
			if got := len(ls.dep.Leaves()); got != sh.leaves {
				t.Fatalf("leaves = %d, want %d", got, sh.leaves)
			}
			leaf := side
			for _, l := range sh.levels {
				leaf /= float64(l.Cols)
			}

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
			add("far", far)
			for _, op := range []string{"range2", "range4"} {
				_, pts := rangeAreas[op](leaf)
				for i, p := range pts {
					add(fmt.Sprintf("%s-%d", op, i), p)
				}
			}
			for _, op := range []string{"sibling", "cousin"} {
				from, _ := handovers[op](leaf)
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
						rect, _ := rangeAreas[row.op](leaf)
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
						from, to := handovers[row.op](leaf)
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
