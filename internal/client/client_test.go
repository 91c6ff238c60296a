package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

func deploy(t *testing.T, opts server.Options) (*transport.Inproc, *hierarchy.Deployment) {
	t.Helper()
	net := transport.NewInproc(transport.InprocOptions{})
	dep, err := hierarchy.Deploy(net, hierarchy.Spec{
		RootArea: geo.R(0, 0, 1000, 1000),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close(); net.Close() })
	return net, dep
}

func TestRegisterValidation(t *testing.T) {
	net, _ := deploy(t, server.Options{})
	c, err := client.New(net, "c", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Inverted accuracy range.
	_, err = c.Register(ctx, core.Sighting{OID: "o", T: time.Now(), Pos: geo.Pt(1, 1), SensAcc: 5}, 50, 10, 3)
	if !errors.Is(err, core.ErrBadRequest) {
		t.Errorf("inverted range err = %v", err)
	}
	// Empty object id.
	_, err = c.Register(ctx, core.Sighting{T: time.Now(), Pos: geo.Pt(1, 1), SensAcc: 5}, 10, 50, 3)
	if !errors.Is(err, core.ErrBadRequest) {
		t.Errorf("empty oid err = %v", err)
	}
}

func TestUpdateWrongHandle(t *testing.T) {
	net, _ := deploy(t, server.Options{})
	c, err := client.New(net, "c", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	obj, err := c.Register(ctx, core.Sighting{OID: "mine", T: time.Now(), Pos: geo.Pt(1, 1), SensAcc: 5}, 10, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	err = obj.Update(ctx, core.Sighting{OID: "other", T: time.Now(), Pos: geo.Pt(2, 2), SensAcc: 5})
	if !errors.Is(err, core.ErrBadRequest) {
		t.Errorf("cross-handle update err = %v", err)
	}
}

func TestSetEntry(t *testing.T) {
	net, _ := deploy(t, server.Options{})
	c, err := client.New(net, "c", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Entry() != "r.0" {
		t.Errorf("Entry = %s", c.Entry())
	}
	c.SetEntry("r.3")
	if c.Entry() != "r.3" {
		t.Errorf("Entry after SetEntry = %s", c.Entry())
	}
	// Queries still work through the new entry.
	ctx := context.Background()
	owner, err := client.New(net, "owner", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	if _, err := owner.Register(ctx, core.Sighting{OID: "o", T: time.Now(), Pos: geo.Pt(10, 10), SensAcc: 5}, 10, 50, 3); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.PosQuery(ctx, "o"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query through new entry never succeeded")
		}
		// Polls: the CreatePath climb to the root signals nothing a client sees.
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAccChangeNotification(t *testing.T) {
	// Handover to a leaf with a different achievable accuracy triggers
	// notifyAvailAcc at the registrant.
	net := transport.NewInproc(transport.InprocOptions{})
	t.Cleanup(func() { net.Close() })

	spec := hierarchy.Spec{RootArea: geo.R(0, 0, 1000, 1000), Levels: []hierarchy.Level{{Rows: 1, Cols: 2}}}
	configs, err := hierarchy.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	rootArea := core.AreaFromRect(spec.RootArea)
	// Left leaf achieves 10 m, right leaf only 40 m.
	accFor := map[string]float64{"r": 10, "r.0": 10, "r.1": 40}
	var servers []*server.Server
	for _, cfg := range configs {
		srv, serr := server.New(cfg, rootArea, net, server.Options{AchievableAcc: accFor[cfg.ID]})
		if serr != nil {
			t.Fatal(serr)
		}
		servers = append(servers, srv)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})

	notified := make(chan float64, 1)
	c, err := client.New(net, "c", "r.0", client.Options{
		OnAccChange: func(_ core.OID, acc float64) {
			select {
			case notified <- acc: // the first notification is the one checked
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	obj, err := c.Register(ctx, core.Sighting{OID: "o", T: time.Now(), Pos: geo.Pt(100, 500), SensAcc: 5}, 10, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if obj.OfferedAcc() != 10 {
		t.Fatalf("initial acc = %v", obj.OfferedAcc())
	}
	// Cross into the coarse leaf.
	if err := obj.Update(ctx, core.Sighting{OID: "o", T: time.Now(), Pos: geo.Pt(900, 500), SensAcc: 5}); err != nil {
		t.Fatal(err)
	}
	if obj.OfferedAcc() != 40 {
		t.Errorf("acc after handover = %v, want 40", obj.OfferedAcc())
	}
	select {
	case acc := <-notified:
		if acc != 40 {
			t.Errorf("notified acc = %v, want 40", acc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notifyAvailAcc never arrived")
	}
}

func TestClientTimeoutOnDeadEntry(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{})
	release := make(chan struct{})
	t.Cleanup(func() {
		close(release) // unblock the handler so Close does not wait
		net.Close()
	})
	// Attach a "black hole" entry server that never answers in time.
	if _, err := net.Attach("r.0", func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) {
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	c, err := client.New(net, "c", "r.0", client.Options{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.PosQuery(context.Background(), "o")
	if err == nil {
		t.Fatal("query to dead entry succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}
