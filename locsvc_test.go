package locsvc_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"locsvc"
)

func TestFacadeEndToEnd(t *testing.T) {
	svc, err := locsvc.NewLocal(locsvc.LocalConfig{
		Area:   locsvc.R(0, 0, 1500, 1500),
		Levels: []locsvc.Level{{Rows: 2, Cols: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	if got := len(svc.Leaves()); got != 4 {
		t.Fatalf("leaves = %d", got)
	}
	entry, ok := svc.EntryFor(locsvc.Pt(100, 100))
	if !ok || entry != "r.0" {
		t.Fatalf("EntryFor = %v/%v", entry, ok)
	}

	ctx := context.Background()
	c, err := svc.NewClientAt("phone", locsvc.Pt(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := c.Register(ctx, locsvc.Sighting{
		OID: "taxi-1", T: time.Now(), Pos: locsvc.Pt(120, 120), SensAcc: 5,
	}, 10, 50, 14)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Update(ctx, locsvc.Sighting{
		OID: "taxi-1", T: time.Now(), Pos: locsvc.Pt(150, 150), SensAcc: 5,
	}); err != nil {
		t.Fatal(err)
	}
	ld, err := c.PosQuery(ctx, "taxi-1")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Pos != locsvc.Pt(150, 150) {
		t.Errorf("ld = %+v", ld)
	}
	objs, err := c.RangeQuery(ctx, locsvc.AreaFromRect(locsvc.R(100, 100, 200, 200)), 25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].OID != "taxi-1" {
		t.Errorf("range = %+v", objs)
	}
	res, err := c.NeighborQuery(ctx, locsvc.Pt(0, 0), 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nearest.OID != "taxi-1" {
		t.Errorf("nearest = %+v", res.Nearest)
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := locsvc.NewLocal(locsvc.LocalConfig{}); !errors.Is(err, locsvc.ErrBadRequest) {
		t.Errorf("empty area err = %v", err)
	}
	tiered := locsvc.LocalConfig{Area: locsvc.R(0, 0, 100, 100), Tiering: &locsvc.TierConfig{}}
	if _, err := locsvc.NewLocal(tiered); !errors.Is(err, locsvc.ErrBadRequest) || !strings.Contains(err.Error(), "WALDir") {
		t.Errorf("Tiering without WALDir err = %v, want ErrBadRequest naming WALDir", err)
	}
	svc, err := locsvc.NewLocal(locsvc.LocalConfig{Area: locsvc.R(0, 0, 100, 100)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.NewClientAt("x", locsvc.Pt(500, 500)); !errors.Is(err, locsvc.ErrOutOfArea) {
		t.Errorf("out-of-area client err = %v", err)
	}
}

func TestFacadeReplicas(t *testing.T) {
	levels := []locsvc.Level{{Rows: 2, Cols: 2}}
	area := locsvc.R(0, 0, 1000, 1000)
	for name, bad := range map[string]locsvc.LocalConfig{
		"no WALDir": {Area: area, Levels: levels, Replicas: true},
		"no levels": {Area: area, WALDir: os.TempDir(), Replicas: true},
	} {
		if _, err := locsvc.NewLocal(bad); !errors.Is(err, locsvc.ErrBadRequest) {
			t.Errorf("Replicas %s: err = %v, want ErrBadRequest", name, err)
		}
	}

	dir := t.TempDir()
	svc, err := locsvc.NewLocal(locsvc.LocalConfig{
		Area:            area,
		Levels:          levels,
		WALDir:          dir,
		Replicas:        true,
		JanitorInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	c, err := svc.NewClientAt("phone", locsvc.Pt(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obj, err := c.Register(ctx, locsvc.Sighting{OID: "o", T: time.Now(), Pos: locsvc.Pt(10, 10), SensAcc: 5}, 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := obj.Update(ctx, locsvc.Sighting{OID: "o", T: time.Now(), Pos: locsvc.Pt(20, 20), SensAcc: 5}); err != nil {
		t.Fatal(err)
	}
	if ld, err := c.PosQuery(ctx, "o"); err != nil || ld.Pos != locsvc.Pt(20, 20) {
		t.Fatalf("pos = %+v, %v", ld, err)
	}

	// The standby is invisible from the facade until a failover, but its
	// mirror is durable: applied records land in its own sighting WAL
	// under <WALDir>/r.0~s-sightings.
	standbyWAL := filepath.Join(dir, "r.0~s-sightings")
	deadline := time.Now().Add(10 * time.Second)
	for {
		var total int64
		ents, _ := os.ReadDir(standbyWAL)
		for _, e := range ents {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		if total > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby r.0~s never persisted a mirrored record")
		}
		// Polls: the facade keeps the wall clock, and the standby logs asynchronously.
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFacadeCaches(t *testing.T) {
	svc, err := locsvc.NewLocal(locsvc.LocalConfig{
		Area:         locsvc.R(0, 0, 1000, 1000),
		Levels:       []locsvc.Level{{Rows: 2, Cols: 2}},
		EnableCaches: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	c, err := svc.NewClientAt("c", locsvc.Pt(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(ctx, locsvc.Sighting{OID: "o", T: time.Now(), Pos: locsvc.Pt(10, 10), SensAcc: 5}, 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PosQuery(ctx, "o"); err != nil {
		t.Fatal(err)
	}
}
