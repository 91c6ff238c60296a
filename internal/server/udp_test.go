package server_test

import (
	"testing"

	"locsvc/internal/client"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// TestEndToEndOverUDP runs the full protocol stack — registration, updates,
// handover, position and range queries — over real UDP sockets, the
// transport of the paper's prototype.
func TestEndToEndOverUDP(t *testing.T) {
	net := transport.NewUDPWithOptions(transport.UDPOptions{})
	defer net.Close()

	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1500, 1500),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}
	dep, err := hierarchy.Deploy(net, spec, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	entry, _ := dep.LeafFor(geo.Pt(100, 100))
	c, err := client.New(net, msg.NodeID("udp-client"), entry, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := c.Register(ctx(t), sightingAt("o1", geo.Pt(100, 100)), 10, 50, 3)
	if err != nil {
		t.Fatalf("register over UDP: %v", err)
	}
	if obj.Agent() != "r.0" {
		t.Fatalf("agent = %s", obj.Agent())
	}

	if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(300, 300))); err != nil {
		t.Fatalf("update over UDP: %v", err)
	}

	ld, err := c.PosQuery(ctx(t), "o1")
	if err != nil {
		t.Fatalf("position query over UDP: %v", err)
	}
	if ld.Pos != geo.Pt(300, 300) {
		t.Errorf("ld = %+v", ld)
	}

	// Handover across a leaf boundary over UDP.
	if err := obj.Update(ctx(t), sightingAt("o1", geo.Pt(900, 300))); err != nil {
		t.Fatalf("handover over UDP: %v", err)
	}
	if obj.Agent() != "r.1" {
		t.Errorf("agent after handover = %s", obj.Agent())
	}

	// Distributed range query over UDP.
	objs, err := c.RangeQueryRect(ctx(t), geo.R(800, 200, 1000, 400), 25, 0.5)
	if err != nil {
		t.Fatalf("range query over UDP: %v", err)
	}
	if len(objs) != 1 || objs[0].OID != "o1" {
		t.Errorf("range result = %+v", objs)
	}

	// Nearest neighbor over UDP.
	res, err := c.NeighborQuery(ctx(t), geo.Pt(850, 250), 25, 0)
	if err != nil {
		t.Fatalf("neighbor query over UDP: %v", err)
	}
	if res.Nearest.OID != "o1" {
		t.Errorf("nearest = %+v", res.Nearest)
	}
}
