package server_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// testdata/leaf-logs holds the logs a lone leaf wrote before its visitor
// records moved into the sighting store: the visitor log (JSON lines, put
// and remove records with the visitor payload) and a two-shard sighting WAL
// directory. Six objects registered at 09:00:00–05 with desired accuracies
// 5, 20, 35, 15, 12 and 25 (the leaf achieves 10 m); then o4 moved twice,
// o2 once, o5 changed its desired accuracy to 50 and o6 deregistered.
var fixtureObjects = []struct {
	oid core.OID
	pos geo.Point
	acc float64
}{
	{"o1", geo.Pt(100, 100), 10},
	{"o2", geo.Pt(210, 160), 20},
	{"o3", geo.Pt(300, 700), 35},
	{"o4", geo.Pt(470, 460), 15},
	{"o5", geo.Pt(800, 120), 50},
}

// copyFixture copies testdata/leaf-logs into a fresh directory: recovery
// may rewrite what it opens.
func copyFixture(t *testing.T) string {
	t.Helper()
	src, dst := filepath.Join("testdata", "leaf-logs"), t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// openFixtureLeaf opens the lone leaf over the fixture's visitor log and,
// with sightings, its sighting WAL directory.
func openFixtureLeaf(t *testing.T, net transport.Network, sightings bool) *server.Server {
	t.Helper()
	dir := copyFixture(t)
	opts := server.Options{}
	vwal, err := store.OpenFileWAL(filepath.Join(dir, "leaf-visitors.wal"))
	if err != nil {
		t.Fatal(err)
	}
	opts.WAL = vwal
	if sightings {
		if opts.SightingWAL, err = store.OpenShardedWAL(filepath.Join(dir, "leaf-sightings"), 1); err != nil {
			t.Fatal(err)
		}
	}
	area := core.AreaFromRect(geo.R(0, 0, 1000, 1000))
	srv, err := server.New(store.ConfigRecord{ID: "leaf", SA: area}, area, net, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// checkFixtureLeaf asserts that srv holds every fixture object's
// registration, position and index-entry accuracy.
func checkFixtureLeaf(t *testing.T, srv *server.Server) {
	t.Helper()
	if n := srv.VisitorCount(); n != len(fixtureObjects) {
		t.Fatalf("%d registrations, want %d", n, len(fixtureObjects))
	}
	if _, ok := srv.VisitorForTest("o6"); ok {
		t.Fatal("deregistered o6 came back")
	}
	got := map[core.OID]core.Entry{}
	for _, e := range srv.LocalRangeForTest(core.AreaFromRect(geo.R(0, 0, 1000, 1000)), 100, 1e-9) {
		got[e.OID] = e
	}
	for _, o := range fixtureObjects {
		rec, ok := srv.VisitorForTest(o.oid)
		if !ok || rec.OfferedAcc != o.acc || rec.RegInfo.Registrant != "dev" || rec.RegInfo.MaxSpeed != 3 {
			t.Errorf("%s: registration %+v (%v), want offered accuracy %v from dev", o.oid, rec, ok, o.acc)
		}
		if e := got[o.oid]; e.LD.Pos != o.pos || e.LD.Acc != o.acc {
			t.Errorf("%s: range query reports %+v, want %v ± %v", o.oid, e, o.pos, o.acc)
		}
	}
	if n, violations := srv.CoveringEntriesForTest(); n != len(fixtureObjects) || len(violations) > 0 {
		t.Fatalf("%d entries carry an accuracy, violations %v", n, violations)
	}
}

// TestLeafLogFixtureBothLogs: a leaf opening the visitor log and the
// sighting WAL an earlier build wrote restores every registration, every
// position and every entry's accuracy.
func TestLeafLogFixtureBothLogs(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	srv := openFixtureLeaf(t, net, true)
	if n := srv.SightingCount(); n != len(fixtureObjects) {
		t.Fatalf("%d sightings, want %d", n, len(fixtureObjects))
	}
	checkFixtureLeaf(t, srv)
}

// TestLeafLogFixtureVisitorLogOnly: a leaf with only the visitor log
// restores the registrations without positions, asks every registrant for
// an update (Section 5), and the re-reported positions carry their
// registrations' accuracies.
func TestLeafLogFixtureVisitorLogOnly(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	var mu sync.Mutex
	var asked []core.OID
	dev, err := net.Attach("dev", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
		if req, ok := m.(msg.RequestUpdate); ok {
			mu.Lock()
			asked = append(asked, req.OID)
			mu.Unlock()
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	srv := openFixtureLeaf(t, net, false)
	if n := srv.SightingCount(); n != 0 {
		t.Fatalf("%d sightings without a sighting WAL", n)
	}
	if n := srv.RestoreVisitors(); n != len(fixtureObjects) {
		t.Fatalf("asked %d registrants for updates, want %d", n, len(fixtureObjects))
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(asked) == len(fixtureObjects)
	}, "every registrant to be asked")
	for i, o := range fixtureObjects {
		s := core.Sighting{OID: o.oid, T: time.Date(2026, 10, 16, 9, 1, i, 0, time.UTC), Pos: o.pos, SensAcc: 5}
		res, err := dev.Call(ctx(t), "leaf", msg.UpdateReq{S: s})
		if err != nil {
			t.Fatal(err)
		}
		if ures := res.(msg.UpdateRes); ures.Moved || ures.OfferedAcc != o.acc {
			t.Fatalf("%s: update reply %+v, want offered accuracy %v", o.oid, ures, o.acc)
		}
	}
	checkFixtureLeaf(t, srv)
}
