package tracenet

import (
	"context"
	"math"
	"testing"
	"time"

	"locsvc/internal/msg"
	"locsvc/internal/transport"
)

// A call through the decorator records the caller's call span and the
// callee's handler span under the open op, and the network falls quiet.
func TestRecordsCallAndHandler(t *testing.T) {
	tn := Wrap(transport.NewInproc(transport.InprocOptions{}), 100)
	defer tn.Close()
	if _, err := tn.Attach("server", func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) {
		return msg.Ack{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	cl, err := tn.Attach("client", func(context.Context, msg.NodeID, msg.Message) (msg.Message, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if _, err := cl.Call(ctx, "server", msg.DiagReq{}); err != nil {
			t.Fatal(err)
		}
	}
	call() // recording is off: nothing kept
	tn.Enable()
	id, t0 := tn.BeginOp()
	call()
	tn.EndOp(id, 3, "client", t0)
	if !tn.Quiesce(time.Second) {
		t.Fatal("network did not fall quiet")
	}
	tn.Disable()
	spans, dropped := tn.Spans()
	if dropped != 0 || len(spans) != 3 {
		t.Fatalf("got %d spans (%d dropped), want handler, call and op: %+v", len(spans), dropped, spans)
	}
	kinds := map[Kind]Span{}
	for _, s := range spans {
		if s.Op != id {
			t.Errorf("span %+v not attributed to op %d", s, id)
		}
		kinds[s.Kind] = s
	}
	h, c := kinds[KindHandler], kinds[KindCall]
	if h.Node != "server" || h.Peer != "client" || h.Tag != msg.TagDiagReq || c.Node != "client" || c.Peer != "server" {
		t.Errorf("handler %+v / call %+v name the wrong nodes", h, c)
	}
	if h.Start < c.Start || h.End > c.End {
		t.Errorf("handler span %+v not inside call span %+v", h, c)
	}
}

// Self time is the handler span minus the calls it made; a hop is half of
// what a call span has beyond its handler span, or a send's delivery delay.
func TestAnalyze(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	spans := []Span{
		{Op: 1, Kind: KindOp, Class: 2, Node: "c", Start: 0, End: us(100)},
		{Op: 1, Kind: KindCall, Tag: msg.TagPosQueryReq, Node: "c", Peer: "leaf", Start: us(5), End: us(95)},
		{Op: 1, Kind: KindHandler, Tag: msg.TagPosQueryReq, Node: "leaf", Peer: "c", Start: us(10), End: us(90)},
		{Op: 1, Kind: KindCall, Tag: msg.TagPosQueryDirect, Node: "leaf", Peer: "agent", Start: us(20), End: us(60)},
		{Op: 1, Kind: KindHandler, Tag: msg.TagPosQueryDirect, Node: "agent", Peer: "leaf", Start: us(30), End: us(50)},
		{Op: 1, Kind: KindSend, Tag: msg.TagCreatePath, Node: "agent", Peer: "root", Start: us(40), End: us(41)},
		{Op: 1, Kind: KindHandler, Tag: msg.TagCreatePath, Node: "root", Peer: "agent", Start: us(44), End: us(46)},
		{Op: 9, Kind: KindHandler, Tag: msg.TagDiagReq, Node: "root", Peer: "x", Start: us(200), End: us(201)},
	}
	rep := Analyze(spans, func(id msg.NodeID) bool { return id != "c" })
	c := rep.Class[2]
	if c == nil || c.Ops != 1 {
		t.Fatalf("class 2 not analysed: %+v", rep.Class)
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("op", c.OpUS, 100)
	near("client self", c.ClientSelfUS, 100-80)
	near("server self", c.ServerSelfUS, (80-40)+20+2) // leaf minus its nested call, agent, root
	near("msgs", c.Msgs, 2+2+1)
	near("forward hops", c.FwdHops, 1)
	near("hop", rep.HopUS, (5+10+4)/3.0) // two calls (each half its excess) and one send
	near("leaf self", rep.NodeSelfUS["leaf"], 40)
	if rep.Orphans != 1 {
		t.Errorf("orphans = %d, want the one span of op 9", rep.Orphans)
	}
}
