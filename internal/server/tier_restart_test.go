package server

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// kmSquare is a one-leaf deployment's service area, 1 km square.
func kmSquare() core.Area { return core.AreaFromRect(geo.R(0, 0, 1000, 1000)) }

// TestTieringRequiresSightingWAL: a tiered leaf keeps its runs in its
// sighting log's directory, so New refuses Tiering without a SightingWAL
// and names the missing log.
func TestTieringRequiresSightingWAL(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	_, err := New(store.ConfigRecord{ID: "leaf", SA: kmSquare()}, kmSquare(), net,
		Options{Tiering: &store.TierConfig{MemtableBytes: 1}})
	if err == nil || !strings.Contains(err.Error(), "SightingWAL") {
		t.Fatalf("New = %v, want a refusal naming the SightingWAL", err)
	}
}

// TestTieredLeafRestartKeepsPostFlushUpdate: a tiered leaf registers an
// object, flushes it to a run, acknowledges a newer update and restarts
// from its logs; the position it answers is the update's, not the run's.
func TestTieredLeafRestartKeepsPostFlushUpdate(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewInproc(transport.InprocOptions{})
	defer net.Close()
	open := func() *Server {
		t.Helper()
		vw, err := store.OpenFileWAL(filepath.Join(dir, "leaf-visitors.wal"))
		if err != nil {
			t.Fatal(err)
		}
		sw, err := store.OpenShardedWAL(filepath.Join(dir, "leaf-sightings"), 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(store.ConfigRecord{ID: "leaf", SA: kmSquare()}, kmSquare(), net,
			Options{WAL: vw, SightingWAL: sw, Tiering: &store.TierConfig{MemtableBytes: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	dev, err := net.Attach("dev", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	s := open()
	if err := s.sightings.WaitRecovered(); err != nil {
		t.Fatal(err)
	}
	oid := install(t, s, 0, geo.Pt(1, 1), 10)
	// Filler pushes the shard over its memtable budget.
	for i := 1; i <= 40; i++ {
		install(t, s, i, geo.Pt(900, 900), 10)
	}
	if err := s.sightings.MaintainTiers(); err != nil || s.sightings.TierStats().Flushes == 0 {
		t.Fatalf("no flush (%v)", err)
	}
	res, err := dev.Call(ctx, "leaf", msg.UpdateReq{S: core.Sighting{OID: oid, T: time.Now(), Pos: geo.Pt(9, 9), SensAcc: 5}, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ures, ok := res.(msg.UpdateRes); !ok || ures.Moved {
		t.Fatalf("update reply %#v", res)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = open()
	defer s.Close()
	if err := s.sightings.WaitRecovered(); err != nil {
		t.Fatal(err)
	}
	res, err = dev.Call(ctx, "leaf", msg.PosQueryReq{OID: oid})
	if err != nil {
		t.Fatal(err)
	}
	if pres, ok := res.(msg.PosQueryRes); !ok || !pres.Found || pres.LD.Pos != geo.Pt(9, 9) {
		t.Fatalf("after the restart the leaf answers %#v, want the update's position (9, 9)", res)
	}
}
