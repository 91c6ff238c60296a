package wire

import (
	"encoding/binary"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

// This file holds the explicit per-message encode/decode pairs — one case
// per entry of the msg tag registry, fields in struct declaration order,
// no reflection. Adding a message type means adding its tag in
// msg/tags.go, one case in appendPayload and one in decodePayload; the
// registry-coverage round-trip test fails until all three exist.

// appendPayload appends m's payload encoding and returns its tag; ok is
// false for unregistered types.
func appendPayload(dst []byte, m msg.Message) (_ []byte, tag msg.Tag, ok bool) {
	switch m := m.(type) {
	case msg.RegisterReq:
		dst = appendSighting(dst, m.S)
		dst = appendRegInfo(dst, m.RegInfo)
		dst = appendOrigin(dst, m.Origin)
		dst = appendInt(dst, m.Hops)
		dst = appendU64(dst, m.Seq)
		dst = appendU64(dst, m.Floor)
		return dst, msg.TagRegisterReq, true
	case msg.RegisterRes:
		dst = appendU64(dst, m.OpID)
		dst = appendString(dst, string(m.Agent))
		dst = appendLeafInfo(dst, m.AgentInfo)
		dst = appendF64(dst, m.OfferedAcc)
		dst = appendInt(dst, m.Hops)
		return dst, msg.TagRegisterRes, true
	case msg.RegisterFailed:
		dst = appendU64(dst, m.OpID)
		dst = appendString(dst, string(m.Server))
		dst = appendF64(dst, m.Achievable)
		dst = appendString(dst, m.Refused.Code)
		dst = appendString(dst, m.Refused.Text)
		return dst, msg.TagRegisterFailed, true
	case msg.PathBatch:
		dst = appendUvarint(dst, uint64(len(m.Changes)))
		for _, c := range m.Changes {
			dst = appendPathChange(dst, c)
		}
		return dst, msg.TagPathBatch, true
	case msg.UpdateReq:
		dst = appendSighting(dst, m.S)
		dst = appendU64(dst, m.Seq)
		dst = appendU64(dst, m.Floor)
		return dst, msg.TagUpdateReq, true
	case msg.UpdateRes:
		dst = appendBool(dst, m.Moved)
		dst = appendString(dst, string(m.NewAgent))
		dst = appendLeafInfo(dst, m.AgentInfo)
		dst = appendF64(dst, m.OfferedAcc)
		return dst, msg.TagUpdateRes, true
	case msg.HandoverReq:
		dst = appendSighting(dst, m.S)
		dst = appendRegInfo(dst, m.RegInfo)
		dst = appendString(dst, string(m.OldAgent))
		dst = appendInt(dst, m.Hops)
		return dst, msg.TagHandoverReq, true
	case msg.HandoverRes:
		dst = appendString(dst, string(m.NewAgent))
		dst = appendLeafInfo(dst, m.AgentInfo)
		dst = appendF64(dst, m.OfferedAcc)
		dst = appendInt(dst, m.Hops)
		return dst, msg.TagHandoverRes, true
	case msg.DeregisterReq:
		dst = appendString(dst, string(m.OID))
		return dst, msg.TagDeregisterReq, true
	case msg.DeregisterRes:
		return dst, msg.TagDeregisterRes, true
	case msg.ChangeAccReq:
		dst = appendString(dst, string(m.OID))
		dst = appendF64(dst, m.DesAcc)
		dst = appendF64(dst, m.MinAcc)
		return dst, msg.TagChangeAccReq, true
	case msg.ChangeAccRes:
		dst = appendBool(dst, m.OK)
		dst = appendF64(dst, m.OfferedAcc)
		return dst, msg.TagChangeAccRes, true
	case msg.NotifyAvailAcc:
		dst = appendString(dst, string(m.OID))
		dst = appendF64(dst, m.OfferedAcc)
		return dst, msg.TagNotifyAvailAcc, true
	case msg.RequestUpdate:
		dst = appendString(dst, string(m.OID))
		return dst, msg.TagRequestUpdate, true
	case msg.PosQueryReq:
		dst = appendString(dst, string(m.OID))
		dst = appendF64(dst, m.AccBound)
		return dst, msg.TagPosQueryReq, true
	case msg.PosQueryDirect:
		dst = appendString(dst, string(m.OID))
		return dst, msg.TagPosQueryDirect, true
	case msg.PosQueryRes:
		dst = appendU64(dst, m.OpID)
		dst = appendBool(dst, m.Found)
		dst = appendLD(dst, m.LD)
		dst = appendString(dst, string(m.Agent))
		dst = appendLeafInfo(dst, m.AgentInfo)
		dst = appendF64(dst, m.MaxSpeed)
		dst = appendInt(dst, m.Hops)
		dst = appendBool(dst, m.Partial)
		return dst, msg.TagPosQueryRes, true
	case msg.PosQueryFwd:
		dst = appendString(dst, string(m.OID))
		dst = appendOrigin(dst, m.Origin)
		dst = appendInt(dst, m.Hops)
		return dst, msg.TagPosQueryFwd, true
	case msg.RangeQueryReq:
		dst = appendArea(dst, m.Area)
		dst = appendF64(dst, m.ReqAcc)
		dst = appendF64(dst, m.ReqOverlap)
		return dst, msg.TagRangeQueryReq, true
	case msg.RangeQueryFwd:
		dst = appendArea(dst, m.Area)
		dst = appendF64(dst, m.ReqAcc)
		dst = appendF64(dst, m.ReqOverlap)
		dst = appendOrigin(dst, m.Origin)
		dst = appendInt(dst, m.Hops)
		return dst, msg.TagRangeQueryFwd, true
	case msg.RangeQuerySubRes:
		dst = appendU64(dst, m.OpID)
		dst = appendEntries(dst, m.Objs)
		dst = appendF64(dst, m.CoveredSize)
		dst = appendLeafInfo(dst, m.Leaf)
		dst = appendInt(dst, m.Hops)
		dst = appendNodeIDs(dst, m.Unreachable)
		dst = appendF64(dst, m.UnreachableSize)
		return dst, msg.TagRangeQuerySubRes, true
	case msg.RangeQueryRes:
		dst = appendEntries(dst, m.Objs)
		dst = appendInt(dst, m.Servers)
		dst = appendInt(dst, m.Hops)
		dst = appendBool(dst, m.Partial)
		dst = appendNodeIDs(dst, m.Unreachable)
		return dst, msg.TagRangeQueryRes, true
	case msg.NeighborQueryReq:
		dst = appendPoint(dst, m.P)
		dst = appendF64(dst, m.ReqAcc)
		dst = appendF64(dst, m.NearQual)
		return dst, msg.TagNeighborQueryReq, true
	case msg.NeighborQueryRes:
		dst = appendBool(dst, m.Found)
		dst = appendEntry(dst, m.Nearest)
		dst = appendEntries(dst, m.Near)
		dst = appendF64(dst, m.GuaranteedMinDist)
		dst = appendBool(dst, m.Partial)
		dst = appendNodeIDs(dst, m.Unreachable)
		return dst, msg.TagNeighborQueryRes, true
	case msg.EventSubscribe:
		dst = appendString(dst, m.SubID)
		dst = appendInt(dst, int(m.Kind))
		dst = appendArea(dst, m.Area)
		dst = appendF64(dst, m.ReqAcc)
		dst = appendInt(dst, m.Threshold)
		dst = appendF64(dst, m.Distance)
		dst = appendString(dst, string(m.Coordinator))
		dst = appendString(dst, string(m.Subscriber))
		return dst, msg.TagEventSubscribe, true
	case msg.EventUnsubscribe:
		dst = appendString(dst, m.SubID)
		dst = appendArea(dst, m.Area)
		return dst, msg.TagEventUnsubscribe, true
	case msg.EventCount:
		dst = appendString(dst, m.SubID)
		dst = appendString(dst, string(m.Leaf))
		dst = appendInt(dst, m.Count)
		dst = appendU64(dst, m.Seq)
		return dst, msg.TagEventCount, true
	case msg.EventNotify:
		dst = appendString(dst, m.SubID)
		dst = appendBool(dst, m.Fired)
		dst = appendInt(dst, m.Total)
		dst = appendOIDs(dst, m.Objs)
		dst = appendU64(dst, m.Seq)
		return dst, msg.TagEventNotify, true
	case msg.DiagReq:
		return dst, msg.TagDiagReq, true
	case msg.DiagRes:
		dst = appendString(dst, string(m.Server))
		dst = appendBool(dst, m.IsLeaf)
		dst = appendInt(dst, m.Visitors)
		dst = appendInt(dst, m.Sightings)
		dst = appendShardDiags(dst, m.Shards)
		dst = appendTierDiag(dst, m.Tier)
		dst = appendI64(dst, m.PipelineOps)
		dst = appendI64(dst, m.PipelineHandoffs)
		dst = appendInt(dst, m.EventSubs)
		dst = appendInt(dst, m.EventCoordSubs)
		dst = appendString(dst, m.Metrics)
		return dst, msg.TagDiagRes, true
	case msg.Ack:
		return dst, msg.TagAck, true
	case msg.ErrorRes:
		dst = appendString(dst, m.Code)
		dst = appendString(dst, m.Text)
		return dst, msg.TagErrorRes, true
	}
	return dst, msg.TagInvalid, false
}

// decodePayload decodes the payload identified by tag; known is false for
// tags outside the registry. Field errors surface through the reader's
// sticky error, checked by Decode after the trailing-bytes check.
func decodePayload(r *reader, tag msg.Tag) (m msg.Message, known bool) {
	switch tag {
	case msg.TagRegisterReq:
		return msg.RegisterReq{
			S:       r.sighting(),
			RegInfo: r.regInfo(),
			Origin:  r.origin(),
			Hops:    r.integer(),
			Seq:     r.u64(),
			Floor:   r.u64(),
		}, true
	case msg.TagRegisterRes:
		return msg.RegisterRes{
			OpID:       r.u64(),
			Agent:      r.nodeID(),
			AgentInfo:  r.leafInfo(),
			OfferedAcc: r.f64(),
			Hops:       r.integer(),
		}, true
	case msg.TagRegisterFailed:
		return msg.RegisterFailed{
			OpID:       r.u64(),
			Server:     r.nodeID(),
			Achievable: r.f64(),
			Refused:    msg.ErrorRes{Code: r.str(), Text: r.str()},
		}, true
	case msg.TagPathBatch:
		return msg.PathBatch{Changes: r.pathChanges()}, true
	case msg.TagUpdateReq:
		return msg.UpdateReq{S: r.sighting(), Seq: r.u64(), Floor: r.u64()}, true
	case msg.TagUpdateRes:
		return msg.UpdateRes{
			Moved:      r.boolean(),
			NewAgent:   r.nodeID(),
			AgentInfo:  r.leafInfo(),
			OfferedAcc: r.f64(),
		}, true
	case msg.TagHandoverReq:
		return msg.HandoverReq{
			S:        r.sighting(),
			RegInfo:  r.regInfo(),
			OldAgent: r.nodeID(),
			Hops:     r.integer(),
		}, true
	case msg.TagHandoverRes:
		return msg.HandoverRes{
			NewAgent:   r.nodeID(),
			AgentInfo:  r.leafInfo(),
			OfferedAcc: r.f64(),
			Hops:       r.integer(),
		}, true
	case msg.TagDeregisterReq:
		return msg.DeregisterReq{OID: r.oid()}, true
	case msg.TagDeregisterRes:
		return msg.DeregisterRes{}, true
	case msg.TagChangeAccReq:
		return msg.ChangeAccReq{
			OID:    r.oid(),
			DesAcc: r.f64(),
			MinAcc: r.f64(),
		}, true
	case msg.TagChangeAccRes:
		return msg.ChangeAccRes{OK: r.boolean(), OfferedAcc: r.f64()}, true
	case msg.TagNotifyAvailAcc:
		return msg.NotifyAvailAcc{OID: r.oid(), OfferedAcc: r.f64()}, true
	case msg.TagRequestUpdate:
		return msg.RequestUpdate{OID: r.oid()}, true
	case msg.TagPosQueryReq:
		return msg.PosQueryReq{OID: r.oid(), AccBound: r.f64()}, true
	case msg.TagPosQueryDirect:
		return msg.PosQueryDirect{OID: r.oid()}, true
	case msg.TagPosQueryRes:
		return msg.PosQueryRes{
			OpID:      r.u64(),
			Found:     r.boolean(),
			LD:        r.ld(),
			Agent:     r.nodeID(),
			AgentInfo: r.leafInfo(),
			MaxSpeed:  r.f64(),
			Hops:      r.integer(),
			Partial:   r.boolean(),
		}, true
	case msg.TagPosQueryFwd:
		return msg.PosQueryFwd{
			OID:    r.oid(),
			Origin: r.origin(),
			Hops:   r.integer(),
		}, true
	case msg.TagRangeQueryReq:
		return msg.RangeQueryReq{
			Area:       r.area(),
			ReqAcc:     r.f64(),
			ReqOverlap: r.f64(),
		}, true
	case msg.TagRangeQueryFwd:
		return msg.RangeQueryFwd{
			Area:       r.area(),
			ReqAcc:     r.f64(),
			ReqOverlap: r.f64(),
			Origin:     r.origin(),
			Hops:       r.integer(),
		}, true
	case msg.TagRangeQuerySubRes:
		return msg.RangeQuerySubRes{
			OpID:            r.u64(),
			Objs:            r.entries(),
			CoveredSize:     r.f64(),
			Leaf:            r.leafInfo(),
			Hops:            r.integer(),
			Unreachable:     r.nodeIDs(),
			UnreachableSize: r.f64(),
		}, true
	case msg.TagRangeQueryRes:
		return msg.RangeQueryRes{
			Objs:        r.entries(),
			Servers:     r.integer(),
			Hops:        r.integer(),
			Partial:     r.boolean(),
			Unreachable: r.nodeIDs(),
		}, true
	case msg.TagNeighborQueryReq:
		return msg.NeighborQueryReq{
			P:        r.point(),
			ReqAcc:   r.f64(),
			NearQual: r.f64(),
		}, true
	case msg.TagNeighborQueryRes:
		return msg.NeighborQueryRes{
			Found:             r.boolean(),
			Nearest:           r.entry(),
			Near:              r.entries(),
			GuaranteedMinDist: r.f64(),
			Partial:           r.boolean(),
			Unreachable:       r.nodeIDs(),
		}, true
	case msg.TagEventSubscribe:
		return msg.EventSubscribe{
			SubID:       r.str(),
			Kind:        msg.EventKind(r.integer()),
			Area:        r.area(),
			ReqAcc:      r.f64(),
			Threshold:   r.integer(),
			Distance:    r.f64(),
			Coordinator: r.nodeID(),
			Subscriber:  r.nodeID(),
		}, true
	case msg.TagEventUnsubscribe:
		return msg.EventUnsubscribe{SubID: r.str(), Area: r.area()}, true
	case msg.TagEventCount:
		return msg.EventCount{
			SubID: r.str(),
			Leaf:  r.nodeID(),
			Count: r.integer(),
			Seq:   r.u64(),
		}, true
	case msg.TagEventNotify:
		return msg.EventNotify{
			SubID: r.str(),
			Fired: r.boolean(),
			Total: r.integer(),
			Objs:  r.oids(),
			Seq:   r.u64(),
		}, true
	case msg.TagDiagReq:
		return msg.DiagReq{}, true
	case msg.TagDiagRes:
		return msg.DiagRes{
			Server:           r.nodeID(),
			IsLeaf:           r.boolean(),
			Visitors:         r.integer(),
			Sightings:        r.integer(),
			Shards:           r.shardDiags(),
			Tier:             r.tierDiag(),
			PipelineOps:      r.i64(),
			PipelineHandoffs: r.i64(),
			EventSubs:        r.integer(),
			EventCoordSubs:   r.integer(),
			Metrics:          r.str(),
		}, true
	case msg.TagAck:
		return msg.Ack{}, true
	case msg.TagErrorRes:
		return msg.ErrorRes{Code: r.str(), Text: r.str()}, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Composite fields shared between messages. Encoders and decoders come in
// pairs; both sides list fields in declaration order.

func appendPoint(dst []byte, p geo.Point) []byte {
	dst = appendF64(dst, p.X)
	return appendF64(dst, p.Y)
}

func (r *reader) point() geo.Point {
	return geo.Point{X: r.f64(), Y: r.f64()}
}

func appendSighting(dst []byte, s core.Sighting) []byte {
	dst = appendString(dst, string(s.OID))
	dst = appendTime(dst, s.T)
	dst = appendPoint(dst, s.Pos)
	return appendF64(dst, s.SensAcc)
}

func (r *reader) sighting() core.Sighting {
	return core.Sighting{
		OID:     r.oid(),
		T:       r.timestamp(),
		Pos:     r.point(),
		SensAcc: r.f64(),
	}
}

func appendRegInfo(dst []byte, ri core.RegInfo) []byte {
	dst = appendString(dst, ri.Registrant)
	dst = appendF64(dst, ri.DesAcc)
	dst = appendF64(dst, ri.MinAcc)
	return appendF64(dst, ri.MaxSpeed)
}

func (r *reader) regInfo() core.RegInfo {
	return core.RegInfo{
		Registrant: r.str(),
		DesAcc:     r.f64(),
		MinAcc:     r.f64(),
		MaxSpeed:   r.f64(),
	}
}

func appendLD(dst []byte, ld core.LocationDescriptor) []byte {
	dst = appendPoint(dst, ld.Pos)
	return appendF64(dst, ld.Acc)
}

func (r *reader) ld() core.LocationDescriptor {
	return core.LocationDescriptor{Pos: r.point(), Acc: r.f64()}
}

func appendEntry(dst []byte, e core.Entry) []byte {
	dst = appendString(dst, string(e.OID))
	return appendLD(dst, e.LD)
}

func (r *reader) entry() core.Entry {
	return core.Entry{OID: r.oid(), LD: r.ld()}
}

// entryMinSize is the smallest wire footprint of one core.Entry: an empty
// OID length byte plus three float64s. Length guards use it to reject
// impossible element counts before allocating.
const entryMinSize = 1 + 3*8

func appendEntries(dst []byte, es []core.Entry) []byte {
	dst = appendUvarint(dst, uint64(len(es)))
	for _, e := range es {
		dst = appendEntry(dst, e)
	}
	return dst
}

func (r *reader) entries() []core.Entry {
	n := r.length(entryMinSize)
	if r.err != nil || n == 0 {
		return nil
	}
	es := make([]core.Entry, n)
	for i := range es {
		es[i] = r.entry()
	}
	return es
}

func appendOIDs(dst []byte, ids []core.OID) []byte {
	dst = appendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendString(dst, string(id))
	}
	return dst
}

func (r *reader) oids() []core.OID {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	ids := make([]core.OID, n)
	for i := range ids {
		ids[i] = r.oid()
	}
	return ids
}

func appendNodeIDs(dst []byte, ids []msg.NodeID) []byte {
	dst = appendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendString(dst, string(id))
	}
	return dst
}

func (r *reader) nodeIDs() []msg.NodeID {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	ids := make([]msg.NodeID, n)
	for i := range ids {
		ids[i] = r.nodeID()
	}
	return ids
}

func appendArea(dst []byte, a core.Area) []byte {
	dst = appendUvarint(dst, uint64(len(a.Vertices)))
	for _, p := range a.Vertices {
		dst = appendPoint(dst, p)
	}
	return dst
}

func (r *reader) area() core.Area {
	n := r.length(16)
	if r.err != nil || n == 0 {
		return core.Area{}
	}
	poly := make(geo.Polygon, n)
	for i := range poly {
		poly[i] = r.point()
	}
	return core.Area{Vertices: poly}
}

func appendOrigin(dst []byte, o msg.Origin) []byte {
	dst = appendString(dst, string(o.Node))
	return appendU64(dst, o.OpID)
}

func (r *reader) origin() msg.Origin {
	return msg.Origin{Node: r.nodeID(), OpID: r.u64()}
}

func appendLeafInfo(dst []byte, li msg.LeafInfo) []byte {
	dst = appendString(dst, string(li.ID))
	return appendArea(dst, li.Area)
}

func (r *reader) leafInfo() msg.LeafInfo {
	return msg.LeafInfo{ID: r.nodeID(), Area: r.area()}
}

// pathChangeMinSize is the smallest wire footprint of one msg.PathChange:
// the Remove byte, an empty OID, an empty LeafInfo (two length bytes) and
// a timestamp.
const pathChangeMinSize = 1 + 1 + 2 + 12

func appendPathChange(dst []byte, c msg.PathChange) []byte {
	dst = appendBool(dst, c.Remove)
	dst = appendString(dst, string(c.OID))
	dst = appendLeafInfo(dst, c.Leaf)
	return appendTime(dst, c.SightingT)
}

// pathChangeLen is the length appendPathChange gives c.
func pathChangeLen(c msg.PathChange) int {
	n := len(c.Leaf.Area.Vertices)
	return 1 + stringLen(string(c.OID)) + stringLen(string(c.Leaf.ID)) + uvarintLen(uint64(n)) + 16*n + 12
}

func (r *reader) pathChanges() []msg.PathChange {
	n := r.length(pathChangeMinSize)
	if r.err != nil || n == 0 {
		return nil
	}
	cs := make([]msg.PathChange, n)
	for i := range cs {
		cs[i] = msg.PathChange{Remove: r.boolean(), OID: r.oid(), Leaf: r.leafInfo(), SightingT: r.timestamp()}
	}
	return cs
}

// PathBatchPrefix returns how many of changes, taken from the front, one
// PathBatch envelope from the node from carries within limit encoded
// bytes: at least one, so a change too large for any envelope is still
// offered, and refused by the transport's size guard like any oversize
// envelope. The count is exact but for the change count's own prefix,
// which it takes at its longest.
func PathBatchPrefix(from msg.NodeID, changes []msg.PathChange, limit int) int {
	// The frame header: version, tag, From, CorrID and flags.
	size := 2 + stringLen(string(from)) + 8 + 1 + binary.MaxVarintLen64
	for i, c := range changes {
		if size += pathChangeLen(c); size > limit && i > 0 {
			return i
		}
	}
	return len(changes)
}

// shardDiagSize is the fixed wire footprint of one msg.ShardDiag.
const shardDiagSize = 3 * 8

func appendShardDiags(dst []byte, sd []msg.ShardDiag) []byte {
	dst = appendUvarint(dst, uint64(len(sd)))
	for _, d := range sd {
		dst = appendInt(dst, d.Len)
		dst = appendI64(dst, d.Ops)
		dst = appendI64(dst, d.Contended)
	}
	return dst
}

func (r *reader) shardDiags() []msg.ShardDiag {
	n := r.length(shardDiagSize)
	if r.err != nil || n == 0 {
		return nil
	}
	sd := make([]msg.ShardDiag, n)
	for i := range sd {
		sd[i] = msg.ShardDiag{Len: r.integer(), Ops: r.i64(), Contended: r.i64()}
	}
	return sd
}

func appendTierDiag(dst []byte, t *msg.TierDiag) []byte {
	dst = appendBool(dst, t != nil)
	if t == nil {
		return dst
	}
	dst = appendI64(dst, t.MemtableBytes)
	dst = appendI64(dst, t.RunBytes)
	dst = appendI64(dst, t.MetaBytes)
	dst = appendInt(dst, t.Runs)
	dst = appendI64(dst, t.DiskRecords)
	dst = appendI64(dst, t.DiskLive)
	dst = appendI64(dst, t.Flushes)
	dst = appendI64(dst, t.Compactions)
	dst = appendI64(dst, t.BloomHits)
	dst = appendI64(dst, t.BloomMisses)
	return appendInt(dst, t.Backlog)
}

func (r *reader) tierDiag() *msg.TierDiag {
	if !r.boolean() || r.err != nil {
		return nil
	}
	return &msg.TierDiag{
		MemtableBytes: r.i64(),
		RunBytes:      r.i64(),
		MetaBytes:     r.i64(),
		Runs:          r.integer(),
		DiskRecords:   r.i64(),
		DiskLive:      r.i64(),
		Flushes:       r.i64(),
		Compactions:   r.i64(),
		BloomHits:     r.i64(),
		BloomMisses:   r.i64(),
		Backlog:       r.integer(),
	}
}
