package server_test

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/oracle"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

func cacheOpts() server.Options {
	return server.Options{
		EnableAreaCache:  true,
		EnableAgentCache: true,
		EnablePosCache:   true,
	}
}

func TestAgentCacheShortcutsPositionQuery(t *testing.T) {
	ls := newTestLS(t, quadSpec(), cacheOpts())
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	if _, err := owner.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		root := ls.dep.Servers["r"]
		return root.VisitorCount() == 1
	}, "path at root")

	remote := ls.newClientAt(t, "remote", geo.Pt(1400, 1400), client.Options{})
	// First query goes through the tree and fills the cache.
	if _, err := remote.PosQuery(ctx(t), "o1"); err != nil {
		t.Fatal(err)
	}
	// Second query must take the direct agent shortcut.
	if _, err := remote.PosQuery(ctx(t), "o1"); err != nil {
		t.Fatal(err)
	}
	entry := ls.dep.Servers["r.3"]
	if got := entry.Metrics().Counter("pos_query_cache_agent").Value(); got != 1 {
		t.Errorf("agent-cache hits = %d, want 1", got)
	}
	if got := entry.Metrics().Counter("pos_query_remote").Value(); got != 1 {
		t.Errorf("tree-routed queries = %d, want 1", got)
	}
}

func TestAgentCacheInvalidatedAfterHandover(t *testing.T) {
	ls := newTestLS(t, quadSpec(), cacheOpts())
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	obj, err := owner.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		root := ls.dep.Servers["r"]
		return root.VisitorCount() == 1
	}, "path at root")

	remote := ls.newClientAt(t, "remote", geo.Pt(1400, 1400), client.Options{})
	if _, err := remote.PosQuery(ctx(t), "o1"); err != nil {
		t.Fatal(err)
	}
	// Move the object into another leaf: the cached agent r.0 is stale.
	if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(800, 100))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		root := ls.dep.Servers["r"]
		rec, ok := rootVisitor(root, "o1")
		return ok && rec.ForwardRef == "r.1"
	}, "root re-pointed to r.1")

	// The query must still succeed (miss → invalidate → tree).
	ld, err := remote.PosQuery(ctx(t), "o1")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Pos != geo.Pt(800, 100) {
		t.Errorf("ld = %+v", ld)
	}
	entry := ls.dep.Servers["r.3"]
	if got := entry.Metrics().Counter("pos_query_cache_agent_miss").Value(); got != 1 {
		t.Errorf("agent-cache misses = %d, want 1", got)
	}
}

// rootVisitor reads a visitor record through the exported test hook.
func rootVisitor(s *server.Server, oid core.OID) (store.VisitorRecord, bool) {
	return s.VisitorForTest(oid)
}

func TestPosDescriptorCache(t *testing.T) {
	ls := newTestLS(t, quadSpec(), cacheOpts())
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	// maxSpeed 2 m/s for aging.
	if _, err := owner.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		root := ls.dep.Servers["r"]
		return root.VisitorCount() == 1
	}, "path at root")

	remote := ls.newClientAt(t, "remote", geo.Pt(1400, 1400), client.Options{})
	// Warm the cache.
	if _, err := remote.PosQueryBounded(ctx(t), "o1", 1000); err != nil {
		t.Fatal(err)
	}
	// Generous accuracy bound: answered from the position cache, no
	// agent round trip at all.
	ld, err := remote.PosQueryBounded(ctx(t), "o1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Acc < 10 {
		t.Errorf("cached accuracy %v not aged from 10", ld.Acc)
	}
	entry := ls.dep.Servers["r.3"]
	if got := entry.Metrics().Counter("pos_query_cache_pos").Value(); got != 1 {
		t.Errorf("pos-cache hits = %d, want 1", got)
	}
	// Tight bound: the aged descriptor cannot satisfy 1 m; the query
	// must go to the agent again.
	if _, err := remote.PosQueryBounded(ctx(t), "o1", 1); err != nil {
		t.Fatal(err)
	}
	if got := entry.Metrics().Counter("pos_query_cache_pos").Value(); got != 1 {
		t.Errorf("pos-cache hits after tight bound = %d, want still 1", got)
	}
}

// TestWarmAreaCacheLeavesHandoverUnchanged checks that the (leaf → area)
// cache serves range queries only: with r.1's area cached at r.0, a handover
// from r.0 to r.1 still climbs to their lowest common ancestor and costs the
// same envelopes as with every cache off.
func TestWarmAreaCacheLeavesHandoverUnchanged(t *testing.T) {
	handover := func(t *testing.T, opts server.Options) (envelopes int64) {
		var delivered atomic.Int64
		net := transport.NewInproc(transport.InprocOptions{
			FaultPlan: func(_, _ msg.NodeID, _ msg.Envelope) transport.Fault {
				delivered.Add(1)
				return transport.Fault{}
			},
		})
		dep, err := hierarchy.Deploy(net, quadSpec(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			dep.Close()
			net.Close()
		})
		ls := &testLS{net: net, dep: dep}
		root := dep.Servers["r"]
		oldLeaf := dep.Servers["r.0"]

		owner := ls.newClientAt(t, "owner", geo.Pt(700, 100), client.Options{})
		obj, err := owner.Register(ctx(t), sightingAt("o1", geo.Pt(700, 100)), 10, 50, 3)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return root.VisitorCount() == 1 }, "path at root")
		// Warm r.0's (leaf → area) cache: the first range query spanning
		// r.0 and r.1 teaches r.0 r.1's area, the second goes straight
		// to r.1 when the cache is on.
		q := ls.newClientAt(t, "warm", geo.Pt(100, 100), client.Options{})
		for i := 0; i < 2; i++ {
			if _, err := q.RangeQueryRect(ctx(t), geo.R(700, 50, 900, 150), 25, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if opts.EnableAreaCache {
			if got := oldLeaf.Metrics().Counter("range_query_cache_direct").Value(); got != 1 {
				t.Fatalf("range queries r.0 sent by its area cache = %d, want 1: the cache is not warm", got)
			}
		}

		before := quiescent(&delivered)
		if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(800, 100))); err != nil {
			t.Fatal(err)
		}
		if obj.Agent() != "r.1" {
			t.Fatalf("agent = %s, want r.1", obj.Agent())
		}
		if got := root.Metrics().Counter("handover_seen").Value(); got != 1 {
			t.Errorf("handovers seen at the lowest common ancestor = %d, want 1", got)
		}
		return quiescent(&delivered) - before
	}

	cold := handover(t, server.Options{})
	warm := handover(t, cacheOpts())
	if warm != cold {
		t.Errorf("the handover delivered %d envelopes with a warm area cache, %d with caches off", warm, cold)
	}
}

// quiescent waits until the network has delivered nothing for 50 ms and
// returns the delivery count then. It sleeps because what it waits for is
// an absence: the acknowledgements and path messages earlier operations left
// in flight have no completion event a test can observe.
func quiescent(delivered *atomic.Int64) int64 {
	last := delivered.Load()
	for still := 0; still < 5; {
		time.Sleep(10 * time.Millisecond)
		if n := delivered.Load(); n != last {
			last, still = n, 0
		} else {
			still++
		}
	}
	return last
}

// TestPosQueryDuringHandover asks for an object while a handover is under
// way: once with the HandoverReq from the lowest common ancestor down to the
// new side held back by the network, once with the HandoverRes from the
// lowest common ancestor back to the old side held back. Algorithm 6-3 keeps
// a path from the root to an agent through both windows, so a query from a
// third leaf finds the object at once and never bounces at the root.
func TestPosQueryDuringHandover(t *testing.T) {
	const hold = 100 * time.Millisecond
	cases := []struct {
		name               string
		spec               hierarchy.Spec
		from, to, third    geo.Point
		oldAgent, newAgent msg.NodeID
		// oldSide and newSide are the root's children toward the old and
		// the new agent; the root is the lowest common ancestor.
		oldSide, newSide msg.NodeID
	}{
		{
			name: "sibling", spec: quadSpec(),
			from: geo.Pt(700, 100), to: geo.Pt(800, 100), third: geo.Pt(1400, 1400),
			oldAgent: "r.0", newAgent: "r.1", oldSide: "r.0", newSide: "r.1",
		},
		{
			name: "cousin",
			spec: hierarchy.Spec{
				RootArea: geo.R(0, 0, 1600, 1600),
				Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}},
			},
			from: geo.Pt(700, 100), to: geo.Pt(900, 100), third: geo.Pt(1500, 1500),
			oldAgent: "r.0.1", newAgent: "r.1.0", oldSide: "r.0", newSide: "r.1",
		},
	}
	windows := []struct {
		name string
		// held picks the one envelope the network holds back.
		held func(from, to, oldSide, newSide msg.NodeID, m msg.Message) bool
	}{
		{"request to the new side", func(from, to, _, newSide msg.NodeID, m msg.Message) bool {
			_, ok := m.(msg.HandoverReq)
			return ok && from == "r" && to == newSide
		}},
		{"response to the old side", func(from, to, oldSide, _ msg.NodeID, m msg.Message) bool {
			_, ok := m.(msg.HandoverRes)
			return ok && from == "r" && to == oldSide
		}},
	}
	for _, tc := range cases {
		for _, w := range windows {
			tc, w := tc, w // the FaultPlan may outlive the iteration
			t.Run(tc.name+"/"+w.name, func(t *testing.T) {
				var armed atomic.Bool
				opened := make(chan struct{}, 1)
				net := transport.NewInproc(transport.InprocOptions{
					FaultPlan: func(from, to msg.NodeID, env msg.Envelope) transport.Fault {
						if w.held(from, to, tc.oldSide, tc.newSide, env.Msg) && armed.CompareAndSwap(true, false) {
							opened <- struct{}{}
							return transport.Fault{Delay: hold}
						}
						return transport.Fault{}
					},
				})
				dep, err := hierarchy.Deploy(net, tc.spec, cacheOpts())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					dep.Close()
					net.Close()
				})
				ls := &testLS{net: net, dep: dep}
				root := dep.Servers["r"]

				owner := ls.newClientAt(t, "owner", tc.from, client.Options{})
				obj, err := owner.Register(ctx(t), sightingAt("o1", tc.from), 10, 50, 3)
				if err != nil {
					t.Fatal(err)
				}
				if obj.Agent() != tc.oldAgent {
					t.Fatalf("initial agent = %s, want %s", obj.Agent(), tc.oldAgent)
				}
				waitFor(t, func() bool { return root.VisitorCount() == 1 }, "registration path at the root")
				remote := ls.newClientAt(t, "remote", tc.third, client.Options{})

				armed.Store(true)
				moved := make(chan error, 1)
				go func() { moved <- obj.Update(ctx(t), sightingAt("o1", tc.to)) }()
				select {
				case <-opened:
				case err := <-moved:
					t.Fatalf("handover finished (err %v) without the held message", err)
				}

				asked := time.Now()
				ld, err := remote.PosQuery(ctx(t), "o1")
				waited := time.Since(asked)
				if err != nil {
					t.Fatalf("query inside the window: %v", err)
				}
				if ld.Pos != tc.from && ld.Pos != tc.to {
					t.Errorf("ld = %+v, want the old position %v or the new %v", ld, tc.from, tc.to)
				}
				if waited >= hold {
					t.Errorf("query answered after %v, not inside the %v window", waited, hold)
				}
				if err := <-moved; err != nil {
					t.Fatal(err)
				}
				if obj.Agent() != tc.newAgent {
					t.Errorf("agent = %s, want %s", obj.Agent(), tc.newAgent)
				}
				if got := root.Metrics().Counter("pos_fwd_bounced").Value(); got != 0 {
					t.Errorf("root bounced %d position queries", got)
				}
			})
		}
	}
}

func TestAreaCacheDirectRangeQuery(t *testing.T) {
	ls := newTestLS(t, quadSpec(), cacheOpts())
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	truth := oracle.New(ls.dep.Configs)
	register(t, owner, truth, sightingAt("o1", geo.Pt(800, 800)), 10, 50, 3)

	q := ls.newClientAt(t, "querier", geo.Pt(100, 100), client.Options{})
	area := core.AreaFromRect(geo.R(700, 700, 900, 900)) // entirely inside r.3
	// The first query traverses the tree and teaches r.0 about r.3's
	// area; the second, identical one can go straight to r.3.
	for _, what := range []string{"first", "second"} {
		if objs := checkedRange(t, q, truth, area, 25, 0.5); len(objs) != 1 {
			t.Fatalf("%s query: %+v", what, objs)
		}
	}
	entry := ls.dep.Servers["r.0"]
	if got := entry.Metrics().Counter("range_query_cache_direct").Value(); got != 1 {
		t.Errorf("direct range queries = %d, want 1", got)
	}
}

func TestLeafRecoveryRestoresSightings(t *testing.T) {
	// A leaf server crashes and restarts: its visitorDB (WAL-backed)
	// survives, the sightingDB is rebuilt from re-requested updates
	// (Section 5).
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()

	dir := t.TempDir()
	spec := quadSpec()
	configs, err := hierarchy.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	rootArea := core.AreaFromRect(spec.RootArea)

	servers := make(map[string]*server.Server)
	for _, cfg := range configs {
		opts := server.Options{}
		if cfg.ID == "r.0" {
			wal, werr := store.OpenFileWAL(filepath.Join(dir, "r0.wal"))
			if werr != nil {
				t.Fatal(werr)
			}
			opts.WAL = wal
		}
		srv, serr := server.New(cfg, rootArea, net, opts)
		if serr != nil {
			t.Fatal(serr)
		}
		servers[cfg.ID] = srv
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	// A client that answers RequestUpdate by re-sending its position —
	// the paper's recovery path.
	var obj *client.TrackedObject
	updateRequested := make(chan core.OID, 1)
	c, err := client.New(net, "owner", "r.0", client.Options{
		OnRequestUpdate: func(oid core.OID) {
			select {
			case updateRequested <- oid:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err = c.Register(context.Background(), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Crash r.0: close it (WAL closes with it) and restart from the
	// same WAL.
	if err := servers["r.0"].Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := store.OpenFileWAL(filepath.Join(dir, "r0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := server.New(configs[1], rootArea, net, server.Options{WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	servers["r.0"] = restarted

	// The visitorDB survived; the sightingDB is empty.
	if restarted.VisitorCount() != 1 {
		t.Fatalf("restored visitors = %d", restarted.VisitorCount())
	}
	if restarted.SightingCount() != 0 {
		t.Fatalf("sightings survived crash: %d", restarted.SightingCount())
	}

	// Recovery: the server asks its visitors for fresh updates.
	if n := restarted.RestoreVisitors(); n != 1 {
		t.Fatalf("RestoreVisitors = %d", n)
	}
	select {
	case oid := <-updateRequested:
		if oid != "o1" {
			t.Fatalf("update requested for %s", oid)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RequestUpdate never arrived")
	}
	if err := obj.Update(context.Background(), sightingAt("o1", geo.Pt(105, 100))); err != nil {
		t.Fatal(err)
	}
	if restarted.SightingCount() != 1 {
		t.Errorf("sightingDB not rebuilt: %d", restarted.SightingCount())
	}

	// Queries work again.
	ld, err := c.PosQuery(context.Background(), "o1")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Pos != geo.Pt(105, 100) {
		t.Errorf("ld = %+v", ld)
	}
}

func TestCachesDisabledByDefault(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{})
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	if _, err := owner.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		root := ls.dep.Servers["r"]
		return root.VisitorCount() == 1
	}, "path at root")
	remote := ls.newClientAt(t, "remote", geo.Pt(1400, 1400), client.Options{})
	for i := 0; i < 3; i++ {
		if _, err := remote.PosQuery(ctx(t), "o1"); err != nil {
			t.Fatal(err)
		}
	}
	entry := ls.dep.Servers["r.3"]
	if got := entry.Metrics().Counter("pos_query_cache_agent").Value(); got != 0 {
		t.Errorf("cache hits with caches disabled: %d", got)
	}
	if got := entry.Metrics().Counter("pos_query_remote").Value(); got != 3 {
		t.Errorf("tree-routed queries = %d, want 3", got)
	}
}
