package server_test

import (
	"testing"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/oracle"
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

	// Distributed range and nearest-neighbor queries over UDP.
	truth := oracle.New(dep.Configs)
	truth.Track(obj)
	if objs := checkedRange(t, c, truth, core.AreaFromRect(geo.R(800, 200, 1000, 400)), 25, 0.5); len(objs) != 1 {
		t.Errorf("range result = %+v", objs)
	}
	checkedNN(t, c, truth, geo.Pt(850, 250), 25, 0)
}
