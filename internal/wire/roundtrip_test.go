package wire

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

// This file property-tests the binary codec over the full tag registry:
// for every registered message type, decode(encode(x)) must reproduce x
// exactly. The corpus
// uses UTC timestamps (the codec normalizes instants to UTC; see the
// package doc) and finite floats (NaN breaks value equality, though it
// round-trips bit-exactly, which FuzzDecode covers).

// randString draws a short string including empty, ASCII and multi-byte
// runes.
func randString(rng *rand.Rand) string {
	const runes = "abcdefghijklmnopqrstuvwxyz0123456789.-_αβγ☂日本"
	n := rng.Intn(16)
	rs := []rune(runes)
	out := make([]rune, n)
	for i := range out {
		out[i] = rs[rng.Intn(len(rs))]
	}
	return string(out)
}

func randNodeID(rng *rand.Rand) msg.NodeID { return msg.NodeID(randString(rng)) }
func randOID(rng *rand.Rand) core.OID      { return core.OID(randString(rng)) }

// randTime draws a UTC instant in a ±50-year window around the epoch of
// the paper, with sub-second precision.
func randTime(rng *rand.Rand) time.Time {
	sec := int64(1_600_000_000) + rng.Int63n(3_000_000_000) - 1_500_000_000
	return time.Unix(sec, rng.Int63n(1_000_000_000)).UTC()
}

func randF(rng *rand.Rand) float64 { return rng.NormFloat64() * 1e6 }

func randInt(rng *rand.Rand) int { return rng.Intn(2_000_001) - 1_000_000 }

func randPoint(rng *rand.Rand) geo.Point { return geo.Pt(randF(rng), randF(rng)) }

func randSighting(rng *rand.Rand) core.Sighting {
	return core.Sighting{OID: randOID(rng), T: randTime(rng), Pos: randPoint(rng), SensAcc: randF(rng)}
}

func randRegInfo(rng *rand.Rand) core.RegInfo {
	return core.RegInfo{Registrant: randString(rng), DesAcc: randF(rng), MinAcc: randF(rng), MaxSpeed: randF(rng)}
}

func randLD(rng *rand.Rand) core.LocationDescriptor {
	return core.LocationDescriptor{Pos: randPoint(rng), Acc: randF(rng)}
}

func randEntry(rng *rand.Rand) core.Entry {
	return core.Entry{OID: randOID(rng), LD: randLD(rng)}
}

// randEntries returns nil about a third of the time — nil and absent are
// the same thing on the wire.
func randEntries(rng *rand.Rand) []core.Entry {
	if rng.Intn(3) == 0 {
		return nil
	}
	es := make([]core.Entry, 1+rng.Intn(5))
	for i := range es {
		es[i] = randEntry(rng)
	}
	return es
}

func randNodeIDs(rng *rand.Rand) []msg.NodeID {
	if rng.Intn(3) == 0 {
		return nil
	}
	ids := make([]msg.NodeID, 1+rng.Intn(4))
	for i := range ids {
		ids[i] = randNodeID(rng)
	}
	return ids
}

func randOIDs(rng *rand.Rand) []core.OID {
	if rng.Intn(3) == 0 {
		return nil
	}
	ids := make([]core.OID, 1+rng.Intn(5))
	for i := range ids {
		ids[i] = randOID(rng)
	}
	return ids
}

func randArea(rng *rand.Rand) core.Area {
	if rng.Intn(4) == 0 {
		return core.Area{}
	}
	poly := make(geo.Polygon, 3+rng.Intn(6))
	for i := range poly {
		poly[i] = randPoint(rng)
	}
	return core.Area{Vertices: poly}
}

func randOrigin(rng *rand.Rand) msg.Origin {
	return msg.Origin{Node: randNodeID(rng), OpID: rng.Uint64()}
}

func randLeafInfo(rng *rand.Rand) msg.LeafInfo {
	return msg.LeafInfo{ID: randNodeID(rng), Area: randArea(rng)}
}

func randShardDiags(rng *rand.Rand) []msg.ShardDiag {
	if rng.Intn(3) == 0 {
		return nil
	}
	sd := make([]msg.ShardDiag, 1+rng.Intn(8))
	for i := range sd {
		sd[i] = msg.ShardDiag{Len: randInt(rng), Ops: rng.Int63(), Contended: rng.Int63()}
	}
	return sd
}

func randTierDiag(rng *rand.Rand) *msg.TierDiag {
	if rng.Intn(2) == 0 {
		return nil
	}
	return &msg.TierDiag{
		MemtableBytes: rng.Int63(),
		RunBytes:      rng.Int63(),
		MetaBytes:     rng.Int63(),
		Runs:          randInt(rng),
		DiskRecords:   rng.Int63(),
		DiskLive:      rng.Int63(),
		Flushes:       rng.Int63(),
		Compactions:   rng.Int63(),
		BloomHits:     rng.Int63(),
		BloomMisses:   rng.Int63(),
		Backlog:       randInt(rng),
	}
}

func randPathChanges(rng *rand.Rand) []msg.PathChange {
	if rng.Intn(4) == 0 {
		return nil
	}
	cs := make([]msg.PathChange, 1+rng.Intn(4))
	for i := range cs {
		cs[i] = msg.PathChange{Remove: rng.Intn(2) == 0, OID: randOID(rng), SightingT: randTime(rng)}
		if !cs[i].Remove {
			cs[i].Leaf = randLeafInfo(rng)
		}
	}
	return cs
}

// randomMessage builds a random instance of the message type identified by
// tag. It must cover every entry of the registry: the round-trip test
// fails on any tag it cannot instantiate.
func randomMessage(rng *rand.Rand, tag msg.Tag) (msg.Message, bool) {
	switch tag {
	case msg.TagRegisterReq:
		return msg.RegisterReq{S: randSighting(rng), RegInfo: randRegInfo(rng), Origin: randOrigin(rng), Hops: randInt(rng), Seq: rng.Uint64(), Floor: rng.Uint64()}, true
	case msg.TagRegisterRes:
		return msg.RegisterRes{OpID: rng.Uint64(), Agent: randNodeID(rng), AgentInfo: randLeafInfo(rng), OfferedAcc: randF(rng), Hops: randInt(rng)}, true
	case msg.TagRegisterFailed:
		return msg.RegisterFailed{OpID: rng.Uint64(), Server: randNodeID(rng), Achievable: randF(rng), Refused: msg.ErrorRes{Code: randString(rng), Text: randString(rng)}}, true
	case msg.TagPathBatch:
		return msg.PathBatch{Changes: randPathChanges(rng)}, true
	case msg.TagUpdateReq:
		return msg.UpdateReq{S: randSighting(rng), Seq: rng.Uint64(), Floor: rng.Uint64()}, true
	case msg.TagUpdateRes:
		return msg.UpdateRes{Moved: rng.Intn(2) == 0, NewAgent: randNodeID(rng), AgentInfo: randLeafInfo(rng), OfferedAcc: randF(rng)}, true
	case msg.TagHandoverReq:
		return msg.HandoverReq{S: randSighting(rng), RegInfo: randRegInfo(rng), OldAgent: randNodeID(rng), Hops: randInt(rng)}, true
	case msg.TagHandoverRes:
		return msg.HandoverRes{NewAgent: randNodeID(rng), AgentInfo: randLeafInfo(rng), OfferedAcc: randF(rng), Hops: randInt(rng)}, true
	case msg.TagDeregisterReq:
		return msg.DeregisterReq{OID: randOID(rng)}, true
	case msg.TagDeregisterRes:
		return msg.DeregisterRes{}, true
	case msg.TagChangeAccReq:
		return msg.ChangeAccReq{OID: randOID(rng), DesAcc: randF(rng), MinAcc: randF(rng)}, true
	case msg.TagChangeAccRes:
		return msg.ChangeAccRes{OK: rng.Intn(2) == 0, OfferedAcc: randF(rng)}, true
	case msg.TagNotifyAvailAcc:
		return msg.NotifyAvailAcc{OID: randOID(rng), OfferedAcc: randF(rng)}, true
	case msg.TagRequestUpdate:
		return msg.RequestUpdate{OID: randOID(rng)}, true
	case msg.TagPosQueryReq:
		return msg.PosQueryReq{OID: randOID(rng), AccBound: randF(rng)}, true
	case msg.TagPosQueryDirect:
		return msg.PosQueryDirect{OID: randOID(rng)}, true
	case msg.TagPosQueryRes:
		return msg.PosQueryRes{OpID: rng.Uint64(), Found: rng.Intn(2) == 0, LD: randLD(rng), Agent: randNodeID(rng), AgentInfo: randLeafInfo(rng), MaxSpeed: randF(rng), Hops: randInt(rng), Partial: rng.Intn(2) == 0}, true
	case msg.TagPosQueryFwd:
		return msg.PosQueryFwd{OID: randOID(rng), Origin: randOrigin(rng), Hops: randInt(rng)}, true
	case msg.TagRangeQueryReq:
		return msg.RangeQueryReq{Area: randArea(rng), ReqAcc: randF(rng), ReqOverlap: randF(rng)}, true
	case msg.TagRangeQueryFwd:
		return msg.RangeQueryFwd{Area: randArea(rng), ReqAcc: randF(rng), ReqOverlap: randF(rng), Origin: randOrigin(rng), Hops: randInt(rng)}, true
	case msg.TagRangeQuerySubRes:
		return msg.RangeQuerySubRes{OpID: rng.Uint64(), Objs: randEntries(rng), CoveredSize: randF(rng), Leaf: randLeafInfo(rng), Hops: randInt(rng), Unreachable: randNodeIDs(rng), UnreachableSize: randF(rng)}, true
	case msg.TagRangeQueryRes:
		return msg.RangeQueryRes{Objs: randEntries(rng), Servers: randInt(rng), Hops: randInt(rng), Partial: rng.Intn(2) == 0, Unreachable: randNodeIDs(rng)}, true
	case msg.TagNeighborQueryReq:
		return msg.NeighborQueryReq{P: randPoint(rng), ReqAcc: randF(rng), NearQual: randF(rng)}, true
	case msg.TagNeighborQueryRes:
		return msg.NeighborQueryRes{Found: rng.Intn(2) == 0, Nearest: randEntry(rng), Near: randEntries(rng), GuaranteedMinDist: randF(rng), Partial: rng.Intn(2) == 0, Unreachable: randNodeIDs(rng)}, true
	case msg.TagEventSubscribe:
		return msg.EventSubscribe{SubID: randString(rng), Kind: msg.EventKind(rng.Intn(3)), Area: randArea(rng), ReqAcc: randF(rng), Threshold: randInt(rng), Distance: randF(rng), Coordinator: randNodeID(rng), Subscriber: randNodeID(rng)}, true
	case msg.TagEventUnsubscribe:
		return msg.EventUnsubscribe{SubID: randString(rng), Area: randArea(rng)}, true
	case msg.TagEventCount:
		return msg.EventCount{SubID: randString(rng), Leaf: randNodeID(rng), Count: randInt(rng), Seq: rng.Uint64()}, true
	case msg.TagEventNotify:
		return msg.EventNotify{SubID: randString(rng), Fired: rng.Intn(2) == 0, Total: randInt(rng), Objs: randOIDs(rng), Seq: rng.Uint64()}, true
	case msg.TagDiagReq:
		return msg.DiagReq{}, true
	case msg.TagDiagRes:
		return msg.DiagRes{Server: randNodeID(rng), IsLeaf: rng.Intn(2) == 0, Visitors: randInt(rng), Sightings: randInt(rng), Shards: randShardDiags(rng), Tier: randTierDiag(rng), PipelineOps: rng.Int63(), PipelineHandoffs: rng.Int63(), EventSubs: randInt(rng), EventCoordSubs: randInt(rng), Metrics: randString(rng)}, true
	case msg.TagAck:
		return msg.Ack{}, true
	case msg.TagErrorRes:
		return msg.ErrorRes{Code: randString(rng), Text: randString(rng)}, true
	}
	return nil, false
}

// TestRoundTripEveryRegisteredType drives decode(encode(x)) == x with a
// random-value corpus over the complete tag registry.
func TestRoundTripEveryRegisteredType(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	for _, tag := range msg.AllTags() {
		tag := tag
		t.Run(tag.String(), func(t *testing.T) {
			for i := 0; i < 128; i++ {
				m, ok := randomMessage(rng, tag)
				if !ok {
					t.Fatalf("corpus cannot instantiate registered tag %v — add it to randomMessage", tag)
				}
				if got, _ := msg.TagOf(m); got != tag {
					t.Fatalf("TagOf(%T) = %v, want %v", m, got, tag)
				}
				env := msg.Envelope{
					From:   randNodeID(rng),
					CorrID: rng.Uint64(),
					Reply:  rng.Intn(2) == 0,
					Msg:    m,
				}
				data, err := Encode(env)
				if err != nil {
					t.Fatalf("Encode(%#v): %v", env, err)
				}
				got, err := Decode(data)
				if err != nil {
					t.Fatalf("Decode: %v (envelope %#v)", err, env)
				}
				if !reflect.DeepEqual(got, env) {
					t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, env)
				}
			}
		})
	}
	// The retired CreatePath and RemovePath envelopes live on as the two
	// kinds of PathChange; each kind round-trips in batches of its own.
	for _, kind := range []struct {
		name   string
		remove bool
	}{{"CreatePath", false}, {"RemovePath", true}} {
		kind := kind
		t.Run(kind.name, func(t *testing.T) {
			for i := 0; i < 128; i++ {
				cs := make([]msg.PathChange, 1+rng.Intn(4))
				for j := range cs {
					cs[j] = msg.PathChange{Remove: kind.remove, OID: randOID(rng), SightingT: randTime(rng)}
					if !kind.remove {
						cs[j].Leaf = randLeafInfo(rng)
					}
				}
				env := msg.Envelope{From: randNodeID(rng), CorrID: rng.Uint64(), Msg: msg.PathBatch{Changes: cs}}
				data, err := Encode(env)
				if err != nil {
					t.Fatalf("Encode(%#v): %v", env, err)
				}
				got, err := Decode(data)
				if err != nil {
					t.Fatalf("Decode: %v (envelope %#v)", err, env)
				}
				if !reflect.DeepEqual(got, env) {
					t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, env)
				}
			}
		})
	}
}

// TestRegistryDense pins the registry's shape: AllTags covers every
// assigned value but the retired ones with unique names, so a new message
// type that skips the registry is caught here or by the coverage loop
// above, and a retired value stays out of it.
func TestRegistryDense(t *testing.T) {
	retired := map[msg.Tag]bool{msg.TagCreatePath: true, msg.TagRemovePath: true}
	for tag := msg.Tag(34); tag <= 39; tag++ { // the replication messages, retired in wire v9
		retired[tag] = true
	}
	tags := msg.AllTags()
	if len(tags) != 32 {
		t.Fatalf("registry has %d tags, want 32 (update this test when adding messages)", len(tags))
	}
	seen := map[string]bool{}
	want := msg.Tag(1)
	for i, tag := range tags {
		for retired[want] {
			want++
		}
		if tag != want {
			t.Errorf("tag %d is %v, want %v: registry must stay dense but for retired values", i, tag, want)
		}
		want++
		name := tag.String()
		if seen[name] {
			t.Errorf("duplicate tag name %q", name)
		}
		seen[name] = true
	}
	for tag := range retired {
		if got, want := tag.String(), fmt.Sprintf("Tag(%d)", tag); got != want {
			t.Errorf("retired tag String() = %q, want %q", got, want)
		}
	}
	if got := msg.Tag(250).String(); got != "Tag(250)" {
		t.Errorf("unknown tag String() = %q", got)
	}
	if _, ok := msg.TagOf(nil); ok {
		t.Error("TagOf(nil) reported a registered tag")
	}
}

// TestDecodeRejectsCorruption spot-checks the structured failure modes
// (FuzzDecode explores the full space): truncations at every byte
// boundary, trailing garbage, reserved flags, bad version and unknown
// tags all error out and never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	env := msg.Envelope{From: "r.0", CorrID: 9, Msg: msg.UpdateReq{S: core.Sighting{
		OID: "obj-1", T: time.Unix(1_700_000_000, 123).UTC(), Pos: geo.Pt(1, 2), SensAcc: 3,
	}}}
	data, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
	if _, err := Decode(append(append([]byte{}, data...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte{}, data...)
	bad[0] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("wrong version accepted")
	}
	bad = append([]byte{}, data...)
	bad[1] = 200
	if _, err := Decode(bad); err == nil {
		t.Error("unknown tag accepted")
	}
	// Tag 34 was ReplAppend until wire v9 retired it: an envelope carrying
	// it is refused like any unknown tag, whatever follows the header.
	bad = append([]byte{}, data...)
	bad[1] = 34
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "unknown message tag 34") {
		t.Errorf("an envelope with the retired tag 34: %v, want an unknown-tag error", err)
	}
}
