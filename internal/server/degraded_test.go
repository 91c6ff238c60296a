package server_test

import (
	"errors"
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

// TestDegradedQueriesWithDarkLeaf runs every query type against the quad
// hierarchy with exactly one leaf dark and checks that coordinators answer
// with what the reachable part of the tree knows — marked Partial — instead
// of failing outright. Every answer goes to the checker, which lets a
// Partial answer lack only what lies under the servers it names.
func TestDegradedQueriesWithDarkLeaf(t *testing.T) {
	// No network-level call cap: the servers' own CallTimeout governs
	// hop calls, and the client's operation timeout must outlive the
	// entry server's QueryTimeout to receive the partial answer.
	down := transport.NewNodesDown(nil)
	net := transport.NewInproc(transport.InprocOptions{
		FaultPlan:     down.Plan,
		SweepInterval: 20 * time.Millisecond,
	})
	defer net.Close()
	dep, err := hierarchy.Deploy(net, quadSpec(), server.Options{
		CallTimeout:  300 * time.Millisecond,
		QueryTimeout: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	// One object per quarter; o3 lives on the leaf that goes dark.
	truth := oracle.New(dep.Configs)
	objs := map[string]geo.Point{
		"o0": geo.Pt(100, 100),   // r.0
		"o1": geo.Pt(1200, 100),  // r.1
		"o2": geo.Pt(100, 1200),  // r.2
		"o3": geo.Pt(1200, 1200), // r.3
	}
	for oid, p := range objs {
		c, cerr := client.New(net, msg.NodeID("owner-"+oid), "r.0", client.Options{})
		if cerr != nil {
			t.Fatal(cerr)
		}
		defer c.Close()
		register(t, c, truth, sightingAt(oid, p), 10, 50, 3)
	}

	c, err := client.New(net, "querier", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Sanity before the fault: the full query sees all four objects and
	// is not partial.
	whole := core.AreaFromRect(geo.R(0, 0, 1500, 1500))
	checkedRange(t, c, truth, whole, 100, 0.5)

	// Darken r.3: deliveries to and from it are dropped, its id stays
	// attached — the shape of a paused or crashed process behind a live
	// address.
	down.SetNodeDown("r.3", true)
	dark := []msg.NodeID{"r.3"}

	tests := []struct {
		name  string
		check func(t *testing.T)
	}{
		{"range is partial and equals oracle minus dark leaf", func(t *testing.T) {
			res, err := c.RangeQueryFull(ctx(t), whole, 100, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Partial || !slices.Equal(res.Unreachable, dark) {
				t.Errorf("range over a dark quarter: partial=%v unreachable=%v, want %v", res.Partial, res.Unreachable, dark)
			}
			if err := truth.CheckRange(whole, 100, 0.5, res); err != nil {
				t.Error(err)
			}
		}},
		{"neighbor is partial and nearest among reachable", func(t *testing.T) {
			// The true nearest to this point is o3 on the dark leaf;
			// the degraded answer is the nearest reachable object.
			p := geo.Pt(1050, 1100)
			res, err := c.NeighborQuery(ctx(t), p, 100, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Partial || !slices.Equal(res.Unreachable, dark) {
				t.Errorf("neighbor query touching a dark quarter: partial=%v unreachable=%v, want %v", res.Partial, res.Unreachable, dark)
			}
			if err := truth.CheckNN(p, 100, 0, res, nil); err != nil {
				t.Error(err)
			}
		}},
		{"posquery for object behind dark leaf is unavailable, not not-found", func(t *testing.T) {
			_, err := c.PosQuery(ctx(t), "o3")
			if !errors.Is(err, core.ErrUnavailable) {
				t.Errorf("dark-leaf posquery err = %v, want ErrUnavailable", err)
			}
		}},
		{"posquery for reachable object still succeeds", func(t *testing.T) {
			ld, err := c.PosQuery(ctx(t), "o1")
			if err != nil {
				t.Fatal(err)
			}
			if err := truth.CheckPos("o1", ld, nil); err != nil {
				t.Error(err)
			}
		}},
		{"diag at a live entry is unaffected", func(t *testing.T) {
			res, err := c.Diag(ctx(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Server != "r.0" || !res.IsLeaf {
				t.Errorf("diag = %+v", res)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.check(t) })
	}

	entry := dep.Servers["r.0"]
	if got := entry.Metrics().Counter("wire_degraded_queries").Value(); got < 3 {
		t.Errorf("wire_degraded_queries = %d, want >= 3 (range, neighbor, posquery)", got)
	}
}
