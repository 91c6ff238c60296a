package locsvc_test

import (
	"context"
	"errors"
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
