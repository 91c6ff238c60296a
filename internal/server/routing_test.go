package server_test

import (
	"fmt"
	"math/rand"
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

// linkCounter counts the envelopes of each routed operation per directed
// link. Its plan passes every delivery through unchanged.
type linkCounter struct {
	mu sync.Mutex
	n  map[string]map[[2]msg.NodeID]int
}

func (lc *linkCounter) plan(from, to msg.NodeID, env msg.Envelope) transport.Fault {
	var op string
	switch env.Msg.(type) {
	case msg.RangeQueryFwd:
		op = "range"
	case msg.EventSubscribe:
		op = "subscribe"
	case msg.EventUnsubscribe:
		op = "unsubscribe"
	default:
		return transport.Fault{}
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.n[op] == nil {
		lc.n[op] = make(map[[2]msg.NodeID]int)
	}
	lc.n[op][[2]msg.NodeID{from, to}]++
	return transport.Fault{}
}

// received returns how many copies of op each node got.
func (lc *linkCounter) received(op string) map[msg.NodeID]int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make(map[msg.NodeID]int)
	for link, n := range lc.n[op] {
		out[link[1]] += n
	}
	return out
}

// check asserts that no directed link carried op twice, that no server got
// it twice, and that the root got exactly one copy from below.
func (lc *linkCounter) check(t *testing.T, op string, root msg.NodeID) {
	t.Helper()
	lc.mu.Lock()
	for link, n := range lc.n[op] {
		if n > 1 {
			t.Errorf("%s: link %s→%s carried it %d times", op, link[0], link[1], n)
		}
	}
	lc.mu.Unlock()
	got := lc.received(op)
	for id, n := range got {
		if n > 1 {
			t.Errorf("%s: %s got %d copies", op, id, n)
		}
	}
	// The root has no parent, so every copy it gets comes from below.
	if got[root] != 1 {
		t.Errorf("%s: root got %d copies from below, want 1", op, got[root])
	}
}

// TestUpwardRoutingCrossesEachLinkOnce routes a range query, a subscription
// and its unsubscription from a corner leaf of a two-level tree over an area
// that touches all four level-1 subtrees. Each climbs to the root once and
// fans out from there; a server never sends one back up to the parent it
// came from, so no link carries an operation twice. The answers are checked
// too: the range result against a brute-force filter, the subscription by
// the leaves that install and then drop it.
func TestUpwardRoutingCrossesEachLinkOnce(t *testing.T) {
	const reqAcc, reqOverlap = 20.0, 0.5
	lc := &linkCounter{n: make(map[string]map[[2]msg.NodeID]int)}
	ls, _ := newManualLS(t, hierarchy.Spec{
		RootArea: geo.R(0, 0, 1600, 1600),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}},
	}, server.Options{}, transport.InprocOptions{FaultPlan: lc.plan})
	root := ls.dep.Root()
	start := geo.Pt(100, 100)
	if leaf, _ := ls.dep.LeafFor(start); leaf != "r.0.0" {
		t.Fatalf("start leaf = %s, want r.0.0", leaf)
	}
	// Leaves are 400 m squares; the area and its reqAcc margin both touch
	// the same 3×3 block of them, across every level-1 subtree.
	area := core.AreaFromRect(geo.R(300, 300, 1100, 1100))

	owner := ls.newClientAt(t, "owner", start, client.Options{})
	rng := rand.New(rand.NewSource(51))
	truth := oracle.New(ls.dep.Configs)
	for i := 0; i < 120; i++ {
		p := geo.Pt(rng.Float64()*1600, rng.Float64()*1600)
		register(t, owner, truth, sightingAt(fmt.Sprintf("o%d", i), p), 15, 100, 3)
	}
	under := 0
	for _, cfg := range ls.dep.Configs {
		if cfg.IsLeaf() && area.Bounds().Intersects(cfg.SA.Bounds()) {
			under++
		}
	}
	if under != 9 {
		t.Fatalf("%d leaves under the area, want 9", under)
	}
	// subscriptions reports whether every leaf under the area holds want
	// subscriptions and every other server none.
	subscriptions := func(want int64) func() bool {
		return func() bool {
			for _, cfg := range ls.dep.Configs {
				srv := ls.dep.Servers[msg.NodeID(cfg.ID)]
				n := srv.Metrics().Gauge("event_subscriptions").Value()
				if cfg.IsLeaf() && area.Bounds().Intersects(cfg.SA.Bounds()) {
					if n != want {
						return false
					}
				} else if n != 0 {
					return false
				}
			}
			return true
		}
	}

	querier := ls.newClientAt(t, "querier", start, client.Options{})
	cases := []struct {
		op string
		// entry reports whether the start leaf itself gets a copy: the
		// client hands it a subscription, but a range query's entry
		// leaf answers its own share locally.
		entry bool
		do    func(t *testing.T)
		// done reports that the operation reached every leaf it must.
		done func() bool
	}{
		{
			op: "range",
			do: func(t *testing.T) {
				if got := checkedRange(t, querier, truth, area, reqAcc, reqOverlap); len(got) == 0 {
					t.Fatal("range query matched nothing; test population too sparse")
				}
			},
			done: func() bool { return true },
		},
		{
			op:    "subscribe",
			entry: true,
			do: func(t *testing.T) {
				if err := querier.SubscribeCountAbove("crowd", area, reqAcc, 1000, func(msg.EventNotify) {}); err != nil {
					t.Fatal(err)
				}
			},
			done: subscriptions(1),
		},
		{
			op:    "unsubscribe",
			entry: true,
			do: func(t *testing.T) {
				if err := querier.Unsubscribe("crowd", area); err != nil {
					t.Fatal(err)
				}
			},
			done: subscriptions(0),
		},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			tc.do(t)
			// Every server whose area the operation touches gets it.
			waitFor(t, func() bool {
				got := lc.received(tc.op)
				for _, cfg := range ls.dep.Configs {
					id := msg.NodeID(cfg.ID)
					if id == "r.0.0" && !tc.entry {
						continue
					}
					if area.Bounds().Enlarge(reqAcc).Intersects(cfg.SA.Bounds()) && got[id] == 0 {
						return false
					}
				}
				return tc.done()
			}, tc.op+" routed")
			lc.check(t, tc.op, root)
			if !tc.entry && lc.received(tc.op)["r.0.0"] != 0 {
				t.Errorf("%s: the entry leaf got its own operation back", tc.op)
			}
		})
	}
	// A late duplicate of an earlier operation would show by now.
	for _, tc := range cases {
		lc.check(t, tc.op, root)
	}
}
