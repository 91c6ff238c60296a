package oracle_test

import (
	"fmt"
	"strings"
	"testing"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/oracle"
	"locsvc/internal/store"
)

// Two leaves side by side under one root; A1 and B2 live on r.0, C3 on
// r.1, and D4 is too inaccurate for any query below.
var (
	servers = []store.ConfigRecord{
		{ID: "r", SA: core.AreaFromRect(geo.R(0, 0, 1000, 500))},
		{ID: "r.0", Parent: "r", SA: core.AreaFromRect(geo.R(0, 0, 500, 500))},
		{ID: "r.1", Parent: "r", SA: core.AreaFromRect(geo.R(500, 0, 1000, 500))},
	}
	a, b, c, d = entry("A1", 100, 100, 10), entry("B2", 300, 100, 10), entry("C3", 700, 100, 10), entry("D4", 400, 400, 80)
	whole      = core.AreaFromRect(geo.R(0, 0, 1000, 500))
	r0, r1     = []msg.NodeID{"r.0"}, []msg.NodeID{"r.1"}
)

const reqAcc, reqOverlap = 50, 0.5

func entry(oid string, x, y, acc float64) core.Entry {
	return core.Entry{OID: core.OID(oid), LD: core.LocationDescriptor{Pos: geo.Pt(x, y), Acc: acc}}
}

func truth() *oracle.Oracle {
	o := oracle.New(servers)
	for _, e := range []core.Entry{a, b, c, d} {
		o.Acked(e.OID, e.LD)
	}
	return o
}

func rangeAnswer(partial bool, dark []msg.NodeID, objs ...core.Entry) func(*oracle.Oracle) error {
	return func(o *oracle.Oracle) error {
		return o.CheckRange(whole, reqAcc, reqOverlap, client.RangeResult{Objs: objs, Partial: partial, Unreachable: dark})
	}
}

// nnAnswer answers a query at p with nearQual 100 and the guaranteed
// minimum distance the nearest's position gives.
func nnAnswer(p geo.Point, partial bool, dark []msg.NodeID, nearest core.Entry, near ...core.Entry) func(*oracle.Oracle) error {
	return func(o *oracle.Oracle) error {
		res := client.NeighborResult{Nearest: nearest, Near: near, Partial: partial, Unreachable: dark}
		if g := nearest.LD.Pos.Dist(p) - reqAcc; g > 0 {
			res.GuaranteedMinDist = g
		}
		return o.CheckNN(p, reqAcc, 100, res, nil)
	}
}

func posAnswer(oid core.OID, p geo.Point, err error) func(*oracle.Oracle) error {
	return func(o *oracle.Oracle) error { return o.CheckPos(oid, core.LocationDescriptor{Pos: p, Acc: 10}, err) }
}

// TestCheckers: a right answer passes, and each wrong one fails with an
// error naming the object (or server) it got wrong.
func TestCheckers(t *testing.T) {
	tests := []struct {
		name  string
		check func(*oracle.Oracle) error
		names string // empty for a right answer
	}{
		{"complete range", rangeAnswer(false, nil, a, c, b), ""},
		{"range missing an object", rangeAnswer(false, nil, a, c), "B2"},
		{"range holding an unknown object", rangeAnswer(false, nil, a, b, c, entry("X9", 10, 10, 10)), "X9"},
		{"range holding a non-qualifying object", rangeAnswer(false, nil, a, b, c, d), "D4"},
		{"range holding an object twice", rangeAnswer(false, nil, a, b, c, a), "A1"},
		{"range with a wrong position", rangeAnswer(false, nil, a, entry("B2", 301, 100, 10), c), "B2"},
		{"range with a wrong accuracy", rangeAnswer(false, nil, a, entry("B2", 300, 100, 20), c), "B2"},
		{"partial range missing a dark leaf's object", rangeAnswer(true, r1, a, b), ""},
		{"partial range missing an object outside every unreachable area", rangeAnswer(true, r1, a, c), "B2"},
		{"partial range naming the wrong leaf", rangeAnswer(true, r0, a, b), "C3"},
		{"unflagged range missing a dark leaf's object", rangeAnswer(false, nil, a, b), "C3"},
		{"unflagged range naming an unreachable server", rangeAnswer(false, r1, a, b), "r.1"},
		{"range naming an unknown server", rangeAnswer(true, []msg.NodeID{"r.9"}, a, b), "r.9"},
		{"nearest", nnAnswer(geo.Pt(650, 100), false, nil, c), ""},
		{"wrong nearest", nnAnswer(geo.Pt(650, 100), false, nil, b, c), "C3"},
		{"nearest too inaccurate", nnAnswer(geo.Pt(400, 390), false, nil, d), "D4"},
		{"near set missing an object", nnAnswer(geo.Pt(250, 100), false, nil, b), "A1"},
		{"near set holding a far object", nnAnswer(geo.Pt(250, 100), false, nil, b, a, c), "C3"},
		{"partial nearest among reachable leaves", nnAnswer(geo.Pt(650, 100), true, r1, b), ""},
		{"partial nearest with a nearer reachable object", nnAnswer(geo.Pt(650, 100), true, r0, b), "C3"},
		{"wrong guaranteed minimum distance", func(o *oracle.Oracle) error {
			return o.CheckNN(geo.Pt(650, 100), reqAcc, 0, client.NeighborResult{Nearest: c, GuaranteedMinDist: 1}, nil)
		}, "C3"},
		{"nothing found", func(o *oracle.Oracle) error {
			return o.CheckNN(geo.Pt(650, 100), reqAcc, 0, client.NeighborResult{}, core.ErrNotFound)
		}, "A1"},
		{"nothing found among reachable leaves", func(o *oracle.Oracle) error {
			return o.CheckNN(geo.Pt(650, 100), reqAcc, 0, client.NeighborResult{Partial: true, Unreachable: []msg.NodeID{"r"}}, core.ErrUnavailable)
		}, ""},
		{"position", posAnswer("A1", a.LD.Pos, nil), ""},
		{"wrong position", posAnswer("A1", b.LD.Pos, nil), "A1"},
		{"tracked object not found", posAnswer("A1", geo.Point{}, fmt.Errorf("wrapped: %w", core.ErrNotFound)), "A1"},
		{"untracked object not found", posAnswer("X9", geo.Point{}, core.ErrNotFound), ""},
		{"failed query is no answer", posAnswer("A1", geo.Point{}, core.ErrTimeout), ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.check(truth())
			switch {
			case tc.names == "" && err != nil:
				t.Fatalf("right answer refused: %v", err)
			case tc.names != "" && err == nil:
				t.Fatalf("wrong answer passed; want an error naming %s", tc.names)
			case tc.names != "" && !strings.Contains(err.Error(), tc.names):
				t.Fatalf("error %q does not name %s", err, tc.names)
			}
		})
	}
}

// TestUnsettledStates: an update in flight and a lost position widen what
// answers may show until the next acknowledgement.
func TestUnsettledStates(t *testing.T) {
	o := truth()
	b2 := entry("B2", 320, 100, 10)
	o.Sent(b.OID, b2.LD)
	for _, e := range []core.Entry{b, b2} {
		if err := rangeAnswer(false, nil, a, e, c)(o); err != nil {
			t.Errorf("in flight, %v refused: %v", e.LD.Pos, err)
		}
	}
	o.Acked(b.OID, b2.LD)
	if err := posAnswer(b.OID, b.LD.Pos, nil)(o); err == nil {
		t.Error("acknowledged update, old position passed")
	}
	o.Lost(c.OID)
	if err := rangeAnswer(false, nil, a, b2)(o); err != nil {
		t.Errorf("lost position, answer without it refused: %v", err)
	}
	// A registration in flight may or may not have taken effect.
	o.Sent("N5", a.LD)
	if err := posAnswer("N5", geo.Point{}, core.ErrNotFound)(o); err != nil {
		t.Errorf("registration in flight, not found refused: %v", err)
	}
	if got := o.Checked(); got != (oracle.Checked{Pos: 2, Range: 3}) {
		t.Errorf("checked %+v", got)
	}
}
