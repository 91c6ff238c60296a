package server_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/server"
)

// TestDefaultLeafExportsOneShard pins what every leaf reports about its
// sighting store, not only a sharded or WAL-backed one: a leaf deployed
// with the zero Options answers a diagnostics request with exactly one
// shard holding all its sightings, and a janitor tick sets the shard gauges.
func TestDefaultLeafExportsOneShard(t *testing.T) {
	ls := newTestLS(t, hierarchy.Spec{RootArea: geo.R(0, 0, 1500, 1500)}, server.Options{})
	cl := ls.newClientAt(t, "diag-default", geo.Pt(10, 10), client.Options{Timeout: 10 * time.Second})
	const n = 7
	for i := 0; i < n; i++ {
		if _, err := cl.Register(ctx(t), sightingAt(fmt.Sprintf("d%d", i), geo.Pt(float64(100+i), 100)), 10, 50, 30); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Diag(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsLeaf || res.Sightings != n || len(res.Shards) != 1 || res.Shards[0].Len != n {
		t.Fatalf("DiagRes: leaf %v, %d sightings, shards %+v; want a leaf with one shard of %d", res.IsLeaf, res.Sightings, res.Shards, n)
	}
	leaf := ls.dep.Servers[ls.dep.Leaves()[0]]
	leaf.JanitorTickForTest()
	for gauge, want := range map[string]int64{"sighting_shards": 1, "sighting_shard_occupancy.000": n} {
		if got := leaf.Metrics().Gauge(gauge).Value(); got != want {
			t.Errorf("gauge %s = %d after a janitor tick, want %d", gauge, got, want)
		}
	}
}

// TestDiagNonLeaf: the diagnostics message must answer on inner servers
// too, without shard data.
func TestDiagNonLeaf(t *testing.T) {
	ls := newTestLS(t, quadSpec(), server.Options{AchievableAcc: 10})
	srv, ok := ls.dep.Servers[ls.dep.Root()]
	if !ok {
		t.Fatal("no root server")
	}
	cl, err := client.New(ls.net, "diag-root-client", srv.ID(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Diag(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.IsLeaf || len(res.Shards) != 0 {
		t.Errorf("root diag claims leaf data: %+v", res)
	}
	if res.Server != srv.ID() {
		t.Errorf("diag server = %s, want %s", res.Server, srv.ID())
	}
}

// appended diagnostic: dump visitor records for lost objects
func dumpObject(t *testing.T, ls *testLS, oid core.OID) {
	t.Helper()
	out := ""
	for id, srv := range ls.dep.Servers {
		if rec, ok := srv.VisitorForTest(oid); ok {
			out += fmt.Sprintf("  %s: ref=%q pathT=%s\n", id, rec.ForwardRef, rec.PathT.Format("15:04:05.000000"))
		}
	}
	t.Logf("records for %s:\n%s", oid, out)
}
