package wire

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sight := core.Sighting{OID: "truck-7", T: time.Unix(1_700_000_000, 0).UTC(), Pos: geo.Pt(123.5, 456.25), SensAcc: 10}
	tests := []struct {
		name string
		env  msg.Envelope
	}{
		{"update", msg.Envelope{From: "obj-1", CorrID: 42, Msg: msg.UpdateReq{S: sight, Seq: 12, Floor: 9}}},
		{"register", msg.Envelope{From: "client", Msg: msg.RegisterReq{
			S:       sight,
			RegInfo: core.RegInfo{Registrant: "client", DesAcc: 10, MinAcc: 50},
			Origin:  msg.Origin{Node: "client", OpID: 7},
			Seq:     13,
			Floor:   13,
		}}},
		{"range fwd", msg.Envelope{From: "r.0", Msg: msg.RangeQueryFwd{
			Area:       core.AreaFromRect(geo.R(0, 0, 100, 100)),
			ReqAcc:     25,
			ReqOverlap: 0.5,
			Origin:     msg.Origin{Node: "r.3", OpID: 99},
			Hops:       2,
		}}},
		{"sub res", msg.Envelope{From: "r.1", Reply: false, Msg: msg.RangeQuerySubRes{
			OpID:        99,
			Objs:        []core.Entry{{OID: "a", LD: core.LocationDescriptor{Pos: geo.Pt(1, 2), Acc: 3}}},
			CoveredSize: 2500,
			Leaf:        msg.LeafInfo{ID: "r.1", Area: core.AreaFromRect(geo.R(0, 0, 50, 50))},
		}}},
		{"error reply", msg.Envelope{From: "r", CorrID: 3, Reply: true, Msg: msg.ErrorResFrom(core.ErrNotFound)}},
		{"neighbor res", msg.Envelope{From: "r.2", Msg: msg.NeighborQueryRes{
			Found:   true,
			Nearest: core.Entry{OID: "taxi-3", LD: core.LocationDescriptor{Pos: geo.Pt(9, 9), Acc: 5}},
			Near:    []core.Entry{{OID: "taxi-5"}},
		}}},
		{"ack", msg.Envelope{From: "x", CorrID: 1, Reply: true, Msg: msg.Ack{}}},
		{"path batch", msg.Envelope{From: "r.0.1", CorrID: 5, Msg: msg.PathBatch{Changes: []msg.PathChange{
			{OID: "truck-7", Leaf: msg.LeafInfo{ID: "r.0.1", Area: core.AreaFromRect(geo.R(0, 0, 50, 50))}, SightingT: sight.T},
			{Remove: true, OID: "truck-7", SightingT: sight.T.Add(time.Nanosecond)},
			{OID: "truck-8", Leaf: msg.LeafInfo{ID: "r.0.1", Area: core.AreaFromRect(geo.R(0, 0, 50, 50))}, SightingT: sight.T},
		}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data, err := Encode(tt.env)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if got.From != tt.env.From || got.CorrID != tt.env.CorrID || got.Reply != tt.env.Reply {
				t.Errorf("envelope header mismatch: %+v vs %+v", got, tt.env)
			}
			switch want := tt.env.Msg.(type) {
			case msg.UpdateReq:
				u, ok := got.Msg.(msg.UpdateReq)
				if !ok || u.S != want.S {
					t.Errorf("payload = %#v, want %#v", got.Msg, want)
				}
			case msg.RangeQuerySubRes:
				u, ok := got.Msg.(msg.RangeQuerySubRes)
				if !ok || len(u.Objs) != 1 || u.Objs[0].OID != "a" || u.CoveredSize != 2500 {
					t.Errorf("payload = %#v", got.Msg)
				}
				if !u.Leaf.Valid() {
					t.Error("leaf info lost")
				}
			case msg.NeighborQueryRes:
				u, ok := got.Msg.(msg.NeighborQueryRes)
				if !ok || u.Nearest.OID != "taxi-3" || len(u.Near) != 1 {
					t.Errorf("payload = %#v", got.Msg)
				}
			case msg.PathBatch:
				if !reflect.DeepEqual(got.Msg, want) {
					t.Errorf("payload = %#v, want %#v: every change, in order", got.Msg, want)
				}
			}
		})
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not an envelope")); err == nil {
		t.Error("garbage decoded without error")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty datagram decoded without error")
	}
}

func TestEncodeDeterministicSize(t *testing.T) {
	env := msg.Envelope{From: "r.0", Msg: msg.PosQueryFwd{OID: "o", Origin: msg.Origin{Node: "r.1", OpID: 5}}}
	a, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Errorf("encoding size unstable: %d vs %d", len(a), len(b))
	}
}

// TestPathBatchPrefix checks the split a sender makes before a batch of
// path messages outgrows a datagram: the prefix's envelope encodes within
// the limit, one change more would not fit but for the count prefix's
// slack, and a change too large for any envelope is still offered alone.
func TestPathBatchPrefix(t *testing.T) {
	area := core.Area{}
	for i := 0; i < 40; i++ {
		area.Vertices = append(area.Vertices, geo.Pt(float64(i), float64(i*i)))
	}
	changes := make([]msg.PathChange, 300)
	for i := range changes {
		changes[i] = msg.PathChange{Remove: i%7 == 0, OID: core.OID(fmt.Sprintf("object-%060d", i)), SightingT: time.Unix(1_700_000_000, int64(i)).UTC()}
		if !changes[i].Remove {
			changes[i].Leaf = msg.LeafInfo{ID: "r.3.2", Area: area}
		}
	}
	encodedLen := func(cs []msg.PathChange) int {
		data, err := Encode(msg.Envelope{From: "r.3.2", CorrID: 1 << 60, Msg: msg.PathBatch{Changes: cs}})
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	for _, limit := range []int{1, 200, 1000, 4096, 65507} {
		n := PathBatchPrefix("r.3.2", changes, limit)
		if n < 1 || n > len(changes) {
			t.Fatalf("limit %d: prefix %d of %d", limit, n, len(changes))
		}
		if got := encodedLen(changes[:n]); n > 1 && got > limit {
			t.Errorf("limit %d: %d changes encode to %d bytes", limit, n, got)
		}
		if n < len(changes) {
			if got := encodedLen(changes[:n+1]); got+binary.MaxVarintLen64-1 <= limit {
				t.Errorf("limit %d: %d changes would fit in %d bytes, prefix stops at %d", limit, n+1, got, n)
			}
		}
	}
	if n := PathBatchPrefix("r.3.2", nil, 100); n != 0 {
		t.Errorf("prefix of no changes = %d", n)
	}
}
