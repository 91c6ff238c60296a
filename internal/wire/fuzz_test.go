package wire

import (
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

// FuzzDecode proves the decoder total over arbitrary datagrams: malformed,
// truncated or hostile input must return an error — never panic, never
// allocate beyond the datagram's own size (the length guards cap every
// count by the remaining bytes). Anything that does decode must survive a
// re-encode/re-decode cycle, i.e. Decode's output is always encodable.
func FuzzDecode(f *testing.F) {
	seeds := []msg.Envelope{
		{From: "obj-1", CorrID: 42, Msg: msg.UpdateReq{S: core.Sighting{
			OID: "truck-7", T: time.Unix(1_700_000_000, 0).UTC(), Pos: geo.Pt(123.5, 456.25), SensAcc: 10,
		}, Seq: 1_700_000_000_000_000_042, Floor: 1_700_000_000_000_000_017}},
		{From: "obj-1", Msg: msg.RegisterReq{
			S:       core.Sighting{OID: "truck-7", T: time.Unix(1_700_000_000, 0).UTC(), Pos: geo.Pt(800, 100), SensAcc: 10},
			RegInfo: core.RegInfo{DesAcc: 10, MinAcc: 50, MaxSpeed: 3, Registrant: "obj-1"},
			Origin:  msg.Origin{Node: "obj-1", OpID: 3},
			Seq:     1_700_000_000_000_000_043, Floor: 1_700_000_000_000_000_043,
		}},
		{From: "r.0", CorrID: 8, Msg: msg.HandoverReq{
			S:        core.Sighting{OID: "truck-7", T: time.Unix(1_700_000_000, 0).UTC(), Pos: geo.Pt(800, 100), SensAcc: 10},
			RegInfo:  core.RegInfo{DesAcc: 10, MinAcc: 50, MaxSpeed: 3, Registrant: "obj-1"},
			OldAgent: "r.0", Hops: 1,
		}},
		{From: "r.0", CorrID: 9, Msg: msg.PathBatch{Changes: []msg.PathChange{
			{OID: "truck-7", Leaf: msg.LeafInfo{ID: "r.0", Area: core.AreaFromRect(geo.R(0, 0, 750, 750))}, SightingT: time.Unix(1_700_000_000, 0).UTC()},
			{Remove: true, OID: "truck-8", SightingT: time.Unix(1_700_000_001, 5).UTC()},
		}}},
		{From: "r.0", Reply: true, CorrID: 6, Msg: msg.UpdateRes{Moved: true, NewAgent: "r.1", AgentInfo: msg.LeafInfo{ID: "r.1", Area: core.AreaFromRect(geo.R(750, 0, 1500, 750))}}},
		{From: "r.0", Msg: msg.RegisterFailed{OpID: 3, Server: "r.0", Refused: msg.ErrorRes{Code: msg.CodeBadRequest, Text: "bad request: floor 44 above seq 43"}}},
		{From: "r.0", Reply: true, CorrID: 7, Msg: msg.PosQueryRes{
			OpID: 9, Found: true, LD: core.LocationDescriptor{Pos: geo.Pt(1, 2), Acc: 3},
			Agent: "r.1", MaxSpeed: 4, Hops: 2,
		}},
		{From: "r.1", Msg: msg.RangeQuerySubRes{
			OpID:        99,
			Objs:        []core.Entry{{OID: "a", LD: core.LocationDescriptor{Pos: geo.Pt(1, 2), Acc: 3}}},
			CoveredSize: 2500,
			Leaf:        msg.LeafInfo{ID: "r.1", Area: core.AreaFromRect(geo.R(0, 0, 50, 50))},
		}},
		{From: "x", Msg: msg.EventNotify{SubID: "s", Fired: true, Total: 3, Objs: []core.OID{"a", "b"}}},
		{From: "r", Msg: msg.DiagRes{Server: "r", Shards: []msg.ShardDiag{{Len: 1, Ops: 2, Contended: 3}}, Metrics: "m = 1\n"}},
		{From: "y", CorrID: 1, Reply: true, Msg: msg.Ack{}},
	}
	frames := make([][]byte, 0, len(seeds)+6)
	for _, env := range seeds {
		data, err := Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, data)
	}
	// Envelopes carrying the tags wire v9 retired (34–39, the replication
	// messages), a payload behind the header: all must be refused.
	for tag := byte(34); tag <= 39; tag++ {
		data, err := Encode(msg.Envelope{From: "r.0", CorrID: uint64(tag), Msg: msg.Ack{}})
		if err != nil {
			f.Fatal(err)
		}
		data[1] = tag
		frames = append(frames, append(data, 2, 0, 0, 0, 0, 0, 0, 0, 1, 'a'))
	}
	for _, data := range frames {
		f.Add(data)
		// Truncations and bit flips seed the interesting failure space.
		f.Add(data[:len(data)/2])
		flipped := append([]byte{}, data...)
		flipped[len(flipped)-1] ^= 0xff
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Add([]byte("not an envelope"))
	// A huge length prefix with no bytes behind it: must fail the length
	// guard, not attempt the allocation.
	f.Add([]byte{wireVersion, byte(msg.TagEventNotify), 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := Decode(data)
		if err != nil {
			return // malformed input rejected: the property we want
		}
		out, err := Encode(env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v\nenvelope: %#v", err, env)
		}
		if _, err := Decode(out); err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v\nenvelope: %#v", err, env)
		}
	})
}

// FuzzDecodeBatch extends the decoder-totality property to batch
// datagrams: any malformed batch frame — bad magic, bad version, bad
// count, truncated or corrupted envelope stream, trailing bytes — must
// error without panicking, and anything that decodes must re-encode and
// re-decode to the same number of envelopes.
func FuzzDecodeBatch(f *testing.F) {
	envs := []msg.Envelope{
		{From: "obj-1", CorrID: 42, Msg: msg.UpdateReq{S: core.Sighting{
			OID: "truck-7", T: time.Unix(1_700_000_000, 0).UTC(), Pos: geo.Pt(123.5, 456.25), SensAcc: 10,
		}}},
		{From: "r.0", Reply: true, CorrID: 7, Msg: msg.UpdateRes{Moved: true, NewAgent: "r.1", OfferedAcc: 25}},
		{From: "x", Msg: msg.EventNotify{SubID: "s", Fired: true, Total: 3, Objs: []core.OID{"a", "b"}}},
		{From: "y", CorrID: 1, Reply: true, Msg: msg.Ack{}},
	}
	for n := 1; n <= len(envs); n++ {
		data, err := EncodeBatch(envs[:n])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte{}, data...)
		flipped[len(flipped)/2] ^= 0xff
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{batchMagic})
	f.Add([]byte{batchMagic, wireVersion})
	f.Add([]byte{batchMagic, wireVersion, 0x00})
	f.Add([]byte{batchMagic, wireVersion, 0x01})
	// Huge count with no bytes behind it: the count guard must reject it
	// before any allocation.
	f.Add([]byte{batchMagic, wireVersion, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeBatch(data)
		if err != nil {
			return // malformed input rejected: the property we want
		}
		out, err := EncodeBatch(decoded)
		if err != nil {
			t.Fatalf("decoded batch failed to re-encode: %v\nbatch: %#v", err, decoded)
		}
		again, err := DecodeBatch(out)
		if err != nil {
			t.Fatalf("re-encoded batch failed to decode: %v\nbatch: %#v", err, decoded)
		}
		if len(again) != len(decoded) {
			t.Fatalf("batch size changed across re-encode: %d -> %d", len(decoded), len(again))
		}
	})
}
