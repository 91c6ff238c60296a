package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/msg"
)

// echoHandler replies to UpdateReq with UpdateRes and errors on PosQueryReq.
func echoHandler(t *testing.T) Handler {
	t.Helper()
	return func(_ context.Context, from msg.NodeID, m msg.Message) (msg.Message, error) {
		switch m.(type) {
		case msg.UpdateReq:
			return msg.UpdateRes{OfferedAcc: 25}, nil
		case msg.PosQueryReq:
			return nil, core.ErrNotFound
		default:
			return nil, nil
		}
	}
}

// networks builds one instance of each transport for cross-implementation
// table tests.
func networks(t *testing.T) map[string]Network {
	t.Helper()
	return map[string]Network{
		"inproc": NewInproc(InprocOptions{}),
		"udp":    NewUDPWithOptions(UDPOptions{}),
	}
}

func TestCallRoundTrip(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			if _, err := nw.Attach("server", echoHandler(t)); err != nil {
				t.Fatal(err)
			}
			client, err := nw.Attach("client", func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) {
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := client.Call(ctx, "server", msg.UpdateReq{})
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			res, ok := resp.(msg.UpdateRes)
			if !ok || res.OfferedAcc != 25 {
				t.Errorf("resp = %#v", resp)
			}
		})
	}
}

func TestCallErrorPropagation(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			if _, err := nw.Attach("server", echoHandler(t)); err != nil {
				t.Fatal(err)
			}
			client, err := nw.Attach("client", nil)
			if err != nil {
				t.Fatal(err)
			}
			_ = client
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err = client.Call(ctx, "server", msg.PosQueryReq{OID: "ghost"})
			if !errors.Is(err, core.ErrNotFound) {
				t.Errorf("err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestSendOneWay(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			got := make(chan msg.Message, 1)
			if _, err := nw.Attach("sink", func(_ context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
				got <- m
				return nil, nil
			}); err != nil {
				t.Fatal(err)
			}
			src, err := nw.Attach("src", nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Send("sink", msg.RequestUpdate{OID: "o1"}); err != nil {
				t.Fatal(err)
			}
			select {
			case m := <-got:
				if ru, ok := m.(msg.RequestUpdate); !ok || ru.OID != "o1" {
					t.Errorf("got %#v", m)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("message never delivered")
			}
		})
	}
}

// TestNilHandlerDropsRequests pins what a node attached without a handler
// does with a request, on both networks: it drops it. A Send to it is lost
// without harm to the process, a Call to it times out, and the caller's
// in-flight table empties.
func TestNilHandlerDropsRequests(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			if _, err := nw.Attach("mute", nil); err != nil {
				t.Fatal(err)
			}
			cli, err := nw.Attach("cli", nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := cli.Send("mute", msg.RequestUpdate{OID: "o1"}); err != nil {
				t.Fatalf("Send: %v", err)
			}
			ctx := WithCallDeadline(context.Background(), cli.Clock(), 50*time.Millisecond)
			if _, err := cli.Call(ctx, "mute", msg.UpdateReq{}); !errors.Is(err, core.ErrTimeout) {
				t.Fatalf("Call to a node without a handler: err = %v, want timeout", err)
			}
			waitQuiesced(t, cli)
		})
	}
}

func TestUnknownDestination(t *testing.T) {
	nw := NewInproc(InprocOptions{})
	defer nw.Close()
	n, err := nw.Attach("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Send("nowhere", msg.Ack{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Send err = %v", err)
	}
	if _, err := n.Call(context.Background(), "nowhere", msg.Ack{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Call err = %v", err)
	}

	unw := NewUDPWithOptions(UDPOptions{})
	defer unw.Close()
	un, err := unw.Attach("a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := un.Send("nowhere", msg.Ack{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("udp Send err = %v", err)
	}
}

func TestDuplicateAttach(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			if _, err := nw.Attach("n", nil); err != nil {
				t.Fatal(err)
			}
			if _, err := nw.Attach("n", nil); !errors.Is(err, ErrDuplicateID) {
				t.Errorf("err = %v", err)
			}
		})
	}
}

func TestCallTimeout(t *testing.T) {
	nw := NewInproc(InprocOptions{})
	defer nw.Close()
	if _, err := nw.Attach("slow", func(ctx context.Context, _ msg.NodeID, _ msg.Message) (msg.Message, error) {
		// A slow handler: the caller's own context must end the call first.
		time.Sleep(200 * time.Millisecond)
		return msg.Ack{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	c, err := nw.Attach("client", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, "slow", msg.Ack{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestInprocLatency(t *testing.T) {
	const hop = 20 * time.Millisecond
	nw := NewInproc(InprocOptions{
		Latency: func(_, _ msg.NodeID) time.Duration { return hop },
	})
	defer nw.Close()
	if _, err := nw.Attach("server", echoHandler(t)); err != nil {
		t.Fatal(err)
	}
	c, err := nw.Attach("client", nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := c.Call(context.Background(), "server", msg.UpdateReq{}); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 2*hop {
		t.Errorf("round trip %v, want >= %v (two latency hops)", rtt, 2*hop)
	}
}

func TestConcurrentCalls(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			if _, err := nw.Attach("server", echoHandler(t)); err != nil {
				t.Fatal(err)
			}
			client, err := nw.Attach("client", nil)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for i := 0; i < 64; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					defer cancel()
					resp, err := client.Call(ctx, "server", msg.UpdateReq{})
					if err != nil {
						errs <- err
						return
					}
					if _, ok := resp.(msg.UpdateRes); !ok {
						errs <- fmt.Errorf("bad resp %#v", resp)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func TestNestedCalls(t *testing.T) {
	// A calls B; B's handler calls C before replying — the pattern used
	// by handover processing (Algorithm 6-3).
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			if _, err := nw.Attach("c", func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) {
				return msg.HandoverRes{NewAgent: "c", OfferedAcc: 10}, nil
			}); err != nil {
				t.Fatal(err)
			}
			var bNode Node
			b, err := nw.Attach("b", func(ctx context.Context, _ msg.NodeID, m msg.Message) (msg.Message, error) {
				resp, err := bNode.Call(ctx, "c", m)
				if err != nil {
					return nil, err
				}
				hr := resp.(msg.HandoverRes)
				hr.Hops++
				return hr, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			bNode = b
			a, err := nw.Attach("a", nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			resp, err := a.Call(ctx, "b", msg.HandoverReq{})
			if err != nil {
				t.Fatal(err)
			}
			hr, ok := resp.(msg.HandoverRes)
			if !ok || hr.NewAgent != "c" || hr.Hops != 1 {
				t.Errorf("resp = %#v", resp)
			}
		})
	}
}

// route returns the address registered for id on u.
func route(u *UDP, id msg.NodeID) (string, bool) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	ua, ok := u.dir[id]
	if !ok {
		return "", false
	}
	return ua.String(), true
}

func TestUDPRouteDirectory(t *testing.T) {
	nw := NewUDPWithOptions(UDPOptions{})
	defer nw.Close()
	if err := nw.AddRoute("remote", "127.0.0.1:45678"); err != nil {
		t.Fatal(err)
	}
	addr, ok := route(nw, "remote")
	if !ok || addr != "127.0.0.1:45678" {
		t.Errorf("route = %q, %v", addr, ok)
	}
	if _, ok := route(nw, "missing"); ok {
		t.Error("missing route found")
	}
	if err := nw.AddRoute("bad", "not-an-address:xx"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestNodeCloseDetaches(t *testing.T) {
	nw := NewInproc(InprocOptions{})
	defer nw.Close()
	n, err := nw.Attach("x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Attach("x", nil); err != nil {
		t.Errorf("re-attach after close failed: %v", err)
	}
}
