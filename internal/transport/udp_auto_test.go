package transport

import (
	"context"
	"strings"
	"testing"
	"time"

	"locsvc/internal/msg"
)

func TestAttachAutoUsesAddressAsID(t *testing.T) {
	nw := NewUDPWithOptions(UDPOptions{})
	defer nw.Close()
	n, err := nw.AttachAuto("127.0.0.1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(n.ID()), "127.0.0.1:") {
		t.Errorf("id = %q, want an address", n.ID())
	}
	addr, ok := route(nw, n.ID())
	if !ok || addr != string(n.ID()) {
		t.Errorf("route(%s) = %q, %v", n.ID(), addr, ok)
	}
}

func TestAddressFallbackRouting(t *testing.T) {
	// Two separate UDP networks (two "processes"): the server knows
	// nothing about the client, but the client's node id is its socket
	// address, so the server can reply and even initiate sends.
	serverNet := NewUDPWithOptions(UDPOptions{})
	defer serverNet.Close()
	clientNet := NewUDPWithOptions(UDPOptions{})
	defer clientNet.Close()

	got := make(chan msg.NodeID, 1)
	srv, err := serverNet.Attach("server", func(_ context.Context, from msg.NodeID, m msg.Message) (msg.Message, error) {
		if _, ok := m.(msg.UpdateReq); ok {
			got <- from
			return msg.UpdateRes{OfferedAcc: 7}, nil
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cl, err := clientNet.AttachAuto("127.0.0.1", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
		if _, ok := m.(msg.RequestUpdate); ok {
			return msg.Ack{}, nil
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The client learns the server's address from its own directory.
	serverAddr, _ := route(serverNet, "server")
	if err := clientNet.AddRoute("server", serverAddr); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cl.Call(ctx, "server", msg.UpdateReq{})
	if err != nil {
		t.Fatalf("client call: %v", err)
	}
	if res, ok := resp.(msg.UpdateRes); !ok || res.OfferedAcc != 7 {
		t.Errorf("resp = %#v", resp)
	}

	var clientID msg.NodeID
	select {
	case clientID = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received the call")
	}

	// Server-initiated send to a node it has no static route for: the
	// address-valued id is enough.
	resp, err = srv.Call(ctx, clientID, msg.RequestUpdate{})
	if err != nil {
		t.Fatalf("server call to client: %v", err)
	}
	if _, ok := resp.(msg.Ack); !ok {
		t.Errorf("resp = %#v", resp)
	}
}

func TestAddressFallbackRejectsNonAddresses(t *testing.T) {
	nw := NewUDPWithOptions(UDPOptions{})
	defer nw.Close()
	n, err := nw.Attach("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Send("definitely-not-an-address", msg.Ack{}); err != ErrUnknownNode {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
}
