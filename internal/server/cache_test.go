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
		root, _ := ls.dep.Server("r")
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
	entry, _ := ls.dep.Server("r.3")
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
		root, _ := ls.dep.Server("r")
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
		root, _ := ls.dep.Server("r")
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
	entry, _ := ls.dep.Server("r.3")
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
		root, _ := ls.dep.Server("r")
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
	entry, _ := ls.dep.Server("r.3")
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

func TestAreaCacheDirectHandover(t *testing.T) {
	ls := newTestLS(t, quadSpec(), cacheOpts())
	owner := ls.newClientAt(t, "owner", geo.Pt(700, 100), client.Options{})
	obj, err := owner.Register(ctx(t), sightingAt("o1", geo.Pt(700, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		root, _ := ls.dep.Server("r")
		return root.VisitorCount() == 1
	}, "path at root")

	// Warm r.0's (leaf → area) cache: a range query spanning r.0 and
	// r.1 makes r.1 send its leaf info to the entry server r.0.
	q := ls.newClientAt(t, "warm", geo.Pt(100, 100), client.Options{})
	if _, err := q.RangeQueryRect(ctx(t), geo.R(700, 50, 900, 150), 25, 0.5); err != nil {
		t.Fatal(err)
	}
	oldLeaf, _ := ls.dep.Server("r.0")
	waitFor(t, func() bool {
		return oldLeaf.Metrics().Counter("range_query_seen").Value() >= 0 && oldLeafHasArea(oldLeaf, geo.Pt(800, 100))
	}, "r.0 learned r.1's area")

	// Handover east: with the warm cache this goes leaf-to-leaf.
	if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(800, 100))); err != nil {
		t.Fatal(err)
	}
	if obj.Agent() != "r.1" {
		t.Fatalf("agent = %s", obj.Agent())
	}
	if got := oldLeaf.Metrics().Counter("handover_direct").Value(); got != 1 {
		t.Errorf("direct handovers = %d, want 1", got)
	}

	// The tree must be repaired: the root points to r.1 and queries work
	// from anywhere.
	waitFor(t, func() bool {
		root, _ := ls.dep.Server("r")
		rec, ok := rootVisitor(root, "o1")
		return ok && rec.ForwardRef == "r.1"
	}, "root repaired to r.1")
	waitFor(t, func() bool { return oldLeaf.VisitorCount() == 0 }, "old agent cleaned")

	remote := ls.newClientAt(t, "remote", geo.Pt(1400, 1400), client.Options{})
	ld, err := remote.PosQuery(ctx(t), "o1")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Pos != geo.Pt(800, 100) {
		t.Errorf("ld = %+v", ld)
	}
}

// TestPosQueryDuringDirectHandoverRepair asks for an object inside the
// window a direct handover opens: the old agent has dropped its records,
// the root still points at it, and the new agent's CreatePath — held back
// here by the network — has not arrived. The root must hold the query for
// the repair instead of answering that the object is not tracked.
func TestPosQueryDuringDirectHandoverRepair(t *testing.T) {
	const repairDelay = 100 * time.Millisecond
	var holdRepairs atomic.Bool
	net := transport.NewInproc(transport.InprocOptions{
		FaultPlan: func(_, to msg.NodeID, env msg.Envelope) transport.Fault {
			if _, ok := env.Msg.(msg.CreatePath); ok && to == "r" && holdRepairs.Load() {
				return transport.Fault{Delay: repairDelay}
			}
			return transport.Fault{}
		},
	})
	dep, err := hierarchy.Deploy(net, quadSpec(), server.Options{EnableAreaCache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		dep.Close()
		net.Close()
	})
	ls := &testLS{net: net, dep: dep}
	root, _ := dep.Server("r")
	oldLeaf, _ := dep.Server("r.0")

	owner := ls.newClientAt(t, "owner", geo.Pt(700, 100), client.Options{})
	obj, err := owner.Register(ctx(t), sightingAt("o1", geo.Pt(700, 100)), 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return root.VisitorCount() == 1 }, "path at root")
	// Warm r.0's (leaf → area) cache as TestAreaCacheDirectHandover does.
	q := ls.newClientAt(t, "warm", geo.Pt(100, 100), client.Options{})
	if _, err := q.RangeQueryRect(ctx(t), geo.R(700, 50, 900, 150), 25, 0.5); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return oldLeafHasArea(oldLeaf, geo.Pt(800, 100)) }, "r.0 learned r.1's area")

	holdRepairs.Store(true)
	if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(800, 100))); err != nil {
		t.Fatal(err)
	}
	if got := oldLeaf.Metrics().Counter("handover_direct").Value(); got != 1 {
		t.Fatalf("direct handovers = %d, want 1", got)
	}
	if rec, _ := rootVisitor(root, "o1"); rec.ForwardRef != "r.0" {
		t.Fatalf("root already points to %q: the repair was not held back", rec.ForwardRef)
	}

	remote := ls.newClientAt(t, "remote", geo.Pt(1400, 1400), client.Options{})
	asked := time.Now()
	ld, err := remote.PosQuery(ctx(t), "o1")
	if err != nil {
		t.Fatalf("query inside the repair window: %v", err)
	}
	if ld.Pos != geo.Pt(800, 100) {
		t.Errorf("ld = %+v, want the position at the new agent", ld)
	}
	if root.Metrics().Counter("pos_fwd_bounced").Value() == 0 {
		t.Error("the query never dead-ended at the root: the window was not exercised")
	}
	if waited := time.Since(asked); waited > 2*repairDelay {
		t.Errorf("query answered after %v: released by the grace period, not by the repair arriving after %v", waited, repairDelay)
	}
}

// oldLeafHasArea checks the leaf-area cache through the exported test hook.
func oldLeafHasArea(s *server.Server, p geo.Point) bool {
	_, ok := s.CachedLeafForTest(p)
	return ok
}

func TestAreaCacheDirectRangeQuery(t *testing.T) {
	ls := newTestLS(t, quadSpec(), cacheOpts())
	owner := ls.newClientAt(t, "owner", geo.Pt(100, 100), client.Options{})
	if _, err := owner.Register(ctx(t), sightingAt("o1", geo.Pt(800, 800)), 10, 50, 3); err != nil {
		t.Fatal(err)
	}

	q := ls.newClientAt(t, "querier", geo.Pt(100, 100), client.Options{})
	area := geo.R(700, 700, 900, 900) // entirely inside r.3
	// First query traverses the tree and teaches r.0 about r.3's area.
	objs, err := q.RangeQueryRect(ctx(t), area, 25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 {
		t.Fatalf("first query: %+v", objs)
	}
	// Second identical query can go straight to r.3.
	objs, err = q.RangeQueryRect(ctx(t), area, 25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 {
		t.Fatalf("second query: %+v", objs)
	}
	entry, _ := ls.dep.Server("r.0")
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
		root, _ := ls.dep.Server("r")
		return root.VisitorCount() == 1
	}, "path at root")
	remote := ls.newClientAt(t, "remote", geo.Pt(1400, 1400), client.Options{})
	for i := 0; i < 3; i++ {
		if _, err := remote.PosQuery(ctx(t), "o1"); err != nil {
			t.Fatal(err)
		}
	}
	entry, _ := ls.dep.Server("r.3")
	if got := entry.Metrics().Counter("pos_query_cache_agent").Value(); got != 0 {
		t.Errorf("cache hits with caches disabled: %d", got)
	}
	if got := entry.Metrics().Counter("pos_query_remote").Value(); got != 3 {
		t.Errorf("tree-routed queries = %d, want 3", got)
	}
}

var _ = msg.NodeID("") // keep the import for helpers above
