package server_test

import (
	"context"
	"fmt"
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

// TestLeafLogFixtureRewrite: the registration changes the fixture's visitor
// log records, applied today through a sighting store with a registration
// log, write the same bytes.
func TestLeafLogFixtureRewrite(t *testing.T) {
	dir := copyFixture(t)
	want, err := os.ReadFile(filepath.Join(dir, "leaf-visitors.wal"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := store.OpenFileWAL(filepath.Join(dir, "leaf-visitors.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []store.WALRecord
	if err := src.Replay(func(rec store.WALRecord) error { recs = append(recs, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	written := filepath.Join(dir, "written.wal")
	wal, err := store.OpenFileWAL(written)
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewShardedSightingDB(store.WithRegistrationLog(wal))
	for _, rec := range recs {
		v := rec.Visitor
		switch rec.Op {
		case store.WALPut:
			err = db.PutRegistration(v.OID, store.Registration{RegInfo: v.RegInfo, OfferedAcc: v.OfferedAcc, PathT: v.PathT})
		case store.WALRemove:
			_, _, _, err = db.Deregister(v.OID, false)
		default:
			t.Fatalf("unexpected record %+v in the fixture", rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(written); err != nil || string(got) != string(want) {
		t.Fatalf("log written today differs from the fixture (%v):\n%s\nwant:\n%s", err, got, want)
	}
}

// testdata/inner-logs/inner-visitors.wal is the forwarding log an inner
// server "inner" (children inner.0 … inner.3) wrote before its table kept
// a child slot and an int64 PathT per object: createPath records for
// o1–o5, o4's in a +02:00 zone, an untimed record for o6, a handover of o1
// to inner.3, the removal of o3 and the rewrite of inner.2's records to its
// standby inner.2~s. innerFixture is what that build's Get answered after
// replaying it.
var innerFixture = []struct {
	oid   core.OID
	child string
	pathT time.Time
}{
	{"o1", "inner.3", time.Unix(0, 1792141210000000007)},
	{"o2", "inner.1", time.Unix(0, 1792141201123456789)},
	{"o4", "inner.3", time.Unix(0, 1792141203500000000)},
	{"o5", "inner.2~s", time.Unix(0, 1792141204999999999)},
	{"o6", "inner.0", time.Time{}},
}

// writeInnerFixture replays, through a VisitorDB over the log at path, the
// mutations that wrote testdata/inner-logs/inner-visitors.wal.
func writeInnerFixture(t *testing.T, path string) {
	t.Helper()
	wal, err := store.OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.NewVisitorDB(wal)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 10, 16, 9, 0, 0, 0, time.UTC)
	cest := time.FixedZone("CEST", 2*3600)
	for _, rec := range []store.VisitorRecord{
		{OID: "o1", ForwardRef: "inner.0", PathT: t0.Add(1)},
		{OID: "o2", ForwardRef: "inner.1", PathT: t0.Add(time.Second + 123456789)},
		{OID: "o3", ForwardRef: "inner.2", PathT: t0.Add(2 * time.Second)},
		{OID: "o4", ForwardRef: "inner.3", PathT: time.Date(2026, 10, 16, 11, 0, 3, 500000000, cest)},
		{OID: "o5", ForwardRef: "inner.2", PathT: t0.Add(4*time.Second + 999999999)},
	} {
		if _, err := db.PutIfNewer(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Put(store.VisitorRecord{OID: "o6", ForwardRef: "inner.0"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(store.VisitorRecord{OID: "o1", ForwardRef: "inner.3", PathT: t0.Add(10*time.Second + 7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RemoveIf("o3", func(r store.VisitorRecord) bool { return r.ForwardRef == "inner.2" }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RewriteForward("inner.2", "inner.2~s"); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInnerLogFixture: an inner server opening the forwarding log an
// earlier build wrote answers every lookup as that build did, and the same
// mutations today write the same bytes.
func TestInnerLogFixture(t *testing.T) {
	fixture := filepath.Join("testdata", "inner-logs", "inner-visitors.wal")
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written := filepath.Join(dir, "written.wal")
	writeInnerFixture(t, written)
	if got, err := os.ReadFile(written); err != nil || string(got) != string(want) {
		t.Fatalf("log written today differs from the fixture (%v):\n%s\nwant:\n%s", err, got, want)
	}

	copied := filepath.Join(dir, "inner-visitors.wal")
	if err := os.WriteFile(copied, want, 0o644); err != nil {
		t.Fatal(err)
	}
	vwal, err := store.OpenFileWAL(copied)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	area := core.AreaFromRect(geo.R(0, 0, 1000, 1000))
	cfg := store.ConfigRecord{ID: "inner", SA: area}
	for i, cell := range geo.R(0, 0, 1000, 1000).SplitGrid(2, 2) {
		cfg.Children = append(cfg.Children, store.ChildRecord{ID: fmt.Sprintf("inner.%d", i), SA: core.AreaFromRect(cell)})
	}
	srv, err := server.New(cfg, area, net, server.Options{WAL: vwal})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if n := srv.VisitorCount(); n != len(innerFixture) {
		t.Fatalf("%d forwarding records, want %d", n, len(innerFixture))
	}
	if rec, ok := srv.VisitorForTest("o3"); ok {
		t.Fatalf("removed o3 came back: %+v", rec)
	}
	for _, o := range innerFixture {
		rec, ok := srv.VisitorForTest(o.oid)
		if !ok || rec.OID != o.oid || rec.ForwardRef != o.child || !rec.PathT.Equal(o.pathT) || rec.PathT.IsZero() != o.pathT.IsZero() {
			t.Errorf("%s: %+v (%v), want %s at %v", o.oid, rec, ok, o.child, o.pathT)
		}
		if rec.OfferedAcc != 0 || rec.RegInfo != (core.RegInfo{}) {
			t.Errorf("%s: forwarding record carries registration fields: %+v", o.oid, rec)
		}
	}
}
