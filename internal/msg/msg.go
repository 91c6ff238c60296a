// Package msg defines the wire protocol of the location service: one typed
// message per protocol step of the paper's Algorithms 6-1 … 6-5, plus the
// client-facing request/response pairs of the service interface (Section 3)
// and the small amount of piggybacked information the leaf caches of
// Section 6.5 feed on.
//
// Messages travel in Envelopes over a transport.Network. Two interaction
// styles are used, mirroring the paper:
//
//   - hop-by-hop calls with replies travelling back along the request path
//     (updates, handovers, client requests to the entry server), and
//   - one-way forwards through the hierarchy whose final responses are sent
//     directly to the originating entry server, matched by OpID (position
//     and range query forwarding, registration).
package msg

import (
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// NodeID identifies a node on the network: a location server, a client or
// a tracked object. Server ids are hierarchical path labels ("r", "r.2",
// "r.2.0"); client and object ids are free-form.
type NodeID string

// Envelope wraps a message for transmission.
type Envelope struct {
	// From is the sending node.
	From NodeID
	// CorrID correlates a hop-by-hop reply with its request; zero for
	// one-way messages.
	CorrID uint64
	// Reply marks the envelope as the reply to the call identified by
	// CorrID.
	Reply bool
	// Msg is the payload.
	Msg Message
}

// Message is implemented by every protocol payload.
type Message interface {
	isMessage()
}

// Origin describes where the final response of a tree-routed operation must
// be delivered: the entry server (or client) and the operation id its
// waiter is registered under.
type Origin struct {
	Node NodeID
	OpID uint64
}

// LeafInfo is piggybacked on messages originated by leaf servers so
// receivers can populate their (leaf server → service area) cache
// (Section 6.5). A zero LeafInfo carries no information.
type LeafInfo struct {
	ID   NodeID
	Area core.Area
}

// Valid reports whether the LeafInfo carries a mapping.
func (li LeafInfo) Valid() bool { return li.ID != "" && !li.Area.Empty() }

// ---------------------------------------------------------------------------
// Registration (Algorithm 6-1).

// RegisterReq asks the service to start tracking an object. It is sent by
// the registering instance to its entry server and forwarded through the
// hierarchy to the leaf responsible for S.Pos.
type RegisterReq struct {
	S       core.Sighting
	RegInfo core.RegInfo
	// Origin is where RegisterRes/RegisterFailed is sent.
	Origin Origin
	// Hops counts forwarding steps for metrics.
	Hops int
	// Seq and Floor stamp the request as UpdateReq's do, from the same
	// counter and floor, keyed by Origin.Node: a retried registration is
	// applied exactly once and the original outcome is re-sent.
	Seq   uint64
	Floor uint64
}

// RegisterRes reports successful registration: the object's agent and the
// accuracy the agent offers.
type RegisterRes struct {
	OpID       uint64
	Agent      NodeID
	AgentInfo  LeafInfo
	OfferedAcc float64
	Hops       int
}

// RegisterFailed reports that a registration did not take. With Refused
// empty the leaf cannot provide an accuracy within the requested range and
// Achievable is the best it could do; otherwise Refused says why the leaf
// refused the request: malformed, refused by its store, or no longer
// awaited by its sender. It carries the registration's OpID either way, so
// the registering instance learns the outcome at once.
type RegisterFailed struct {
	OpID       uint64
	Server     NodeID
	Achievable float64
	Refused    ErrorRes
}

// PathChange is one path message: a step of Algorithm 6-1's createPath
// climb, which every server on the leaf-to-root path answers by recording
// a forwarding reference to the child it came from (the envelope's From),
// or of its inverse, removePath, which deregistration and soft-state expiry
// send to tear that path down bottom-up. A handover never sends one: it
// fixes each hop's reference on its response path (Algorithm 6-3), and
// prunes the old branch there too. Path messages travel only inside a
// PathBatch.
type PathChange struct {
	// Remove marks a removePath; otherwise the change is a createPath.
	Remove bool
	OID    core.OID
	// Leaf is the registering leaf, which every server on the path caches
	// (Section 6.5); zero on a removal.
	Leaf LeafInfo
	// SightingT is, for a createPath, the timestamp of the registration's
	// sighting: servers stamp their records with it and ignore older path
	// messages, so a createPath that arrives after a handover re-pointed
	// the path cannot undo it. Every createPath climbs to the root:
	// stopping at the first existing record (the apparent lowest common
	// ancestor) is unsound when stale leftovers from reordered messages
	// exist. For a removePath it is the timestamp of the last sighting the
	// sender holds for the object; records stamped with a newer sighting
	// time refuse the removal (a fresher path was installed meanwhile).
	SightingT time.Time
}

// PathBatch carries the path messages one server sends its parent in one
// tracked call, in the order it queued them; the receiver applies them in
// that order and one acknowledgement covers the batch. Every path message
// travels in one: a server keeps one batch in flight toward its parent, and
// whatever queued meanwhile leaves as the next batch.
type PathBatch struct {
	Changes []PathChange
}

// ---------------------------------------------------------------------------
// Updates and handover (Algorithms 6-2 and 6-3).

// UpdateReq delivers a new sighting from a tracked object to its agent.
// The reply is UpdateRes — the paper's acknowledged update.
type UpdateReq struct {
	S core.Sighting
	// Seq is the sender's per-node sequence number, drawn from one
	// clock-seeded monotonic counter per client. The agent keeps the reply
	// keyed (sender, Seq) and answers a retried duplicate with it instead
	// of applying it again — critical when the first attempt triggered a
	// handover. 0 means unstamped (no dedupe).
	Seq uint64
	// Floor is the lowest Seq the sender still awaited a reply for, from
	// any destination, when it drew Seq. The agent forgets the replies
	// below the highest floor seen and applies no request below it. A
	// Floor above Seq is malformed.
	Floor uint64
}

// UpdateRes acknowledges an update. If the update triggered a handover,
// Moved is true and NewAgent names the object's new agent server, which the
// object must contact from now on.
type UpdateRes struct {
	Moved      bool
	NewAgent   NodeID
	AgentInfo  LeafInfo
	OfferedAcc float64
}

// HandoverReq transfers tracking responsibility after an object left its
// agent's service area. It is a hop-by-hop call: up from the old agent
// until the sighting is inside the receiver's area, then down to the new
// leaf; replies travel back along the same path, fixing forwarding
// references (Algorithm 6-3).
type HandoverReq struct {
	S       core.Sighting
	RegInfo core.RegInfo
	// OldAgent lets servers on the upward path distinguish the direction
	// the request came from.
	OldAgent NodeID
	Hops     int
}

// PosQueryDirect is a cache-shortcut position query sent by an entry server
// straight to an object's cached agent (Section 6.5, (object → agent)
// cache). The reply is PosQueryRes, or an ErrorRes with CodeNotFound when
// the cache entry was stale.
type PosQueryDirect struct {
	OID core.OID
}

// HandoverRes carries the new agent back along the handover path.
type HandoverRes struct {
	NewAgent   NodeID
	AgentInfo  LeafInfo
	OfferedAcc float64
	Hops       int
}

// DeregisterReq removes an object from the service (sent to its agent).
type DeregisterReq struct {
	OID core.OID
}

// DeregisterRes acknowledges deregistration.
type DeregisterRes struct{}

// ChangeAccReq renegotiates the accuracy range for a tracked object
// (Section 3.1, changeAcc); sent to the object's agent.
type ChangeAccReq struct {
	OID    core.OID
	DesAcc float64
	MinAcc float64
}

// ChangeAccRes returns the newly offered accuracy; OK is false if the
// requested range cannot be met (the old registration stays in force).
type ChangeAccRes struct {
	OK         bool
	OfferedAcc float64
}

// NotifyAvailAcc informs a registering instance that the accuracy offered
// for its object changed (Section 3.1, notifyAvailAcc) — typically after a
// handover to a leaf with different sensor infrastructure.
type NotifyAvailAcc struct {
	OID        core.OID
	OfferedAcc float64
}

// RequestUpdate asks a tracked object for an immediate position update; a
// recovering leaf server uses it to restore sightings for the objects whose
// registrations its persistent log kept (Section 5).
type RequestUpdate struct {
	OID core.OID
}

// ---------------------------------------------------------------------------
// Position query (Algorithm 6-4).

// PosQueryReq is a client's position query, a call to its entry server.
type PosQueryReq struct {
	OID core.OID
	// MaxAge, if positive, allows the entry server to answer from its
	// position-descriptor cache as long as the aged accuracy stays below
	// AccBound (Section 6.5, position-descriptor caching).
	AccBound float64
}

// PosQueryRes answers a position query.
type PosQueryRes struct {
	OpID  uint64
	Found bool
	LD    core.LocationDescriptor
	// Agent names the object's agent so the entry server can fill its
	// (object → agent) cache.
	Agent     NodeID
	AgentInfo LeafInfo
	// MaxSpeed is the object's declared maximum speed, letting caches
	// age the descriptor (acc + vmax·Δt, Section 6.5).
	MaxSpeed float64
	Hops     int
	// Partial marks a degraded answer: part of the hierarchy needed to
	// resolve the query was unreachable (open breaker, crashed server),
	// so Found=false means "could not determine", not "not tracked".
	Partial bool
}

// PosQueryFwd routes a position query through the hierarchy: up until a
// forwarding reference is found, then down the forwarding path to the
// agent, which sends PosQueryRes directly to the entry server.
type PosQueryFwd struct {
	OID    core.OID
	Origin Origin
	Hops   int
}

// ---------------------------------------------------------------------------
// Range query (Algorithm 6-5).

// RangeQueryReq is a client's range query, a call to its entry server.
type RangeQueryReq struct {
	Area       core.Area
	ReqAcc     float64
	ReqOverlap float64
}

// RangeQueryFwd routes a range query: up until the receiver's service area
// covers the (enlarged) query area, then down to every leaf overlapping it.
// Prev identifies the hierarchy neighbor the message arrived from so it is
// not immediately forwarded back (Algorithm 6-5's lsf checks).
type RangeQueryFwd struct {
	Area       core.Area
	ReqAcc     float64
	ReqOverlap float64
	Origin     Origin
	Hops       int
}

// RangeQuerySubRes is a leaf's partial result, sent directly to the entry
// server: the qualifying objects plus the measure of the query-area part
// this leaf covers, which the entry server tallies for completion.
type RangeQuerySubRes struct {
	OpID uint64
	Objs []core.Entry
	// CoveredSize is SIZE(area ∩ leaf.sa).
	CoveredSize float64
	Leaf        LeafInfo
	Hops        int
	// Unreachable lists children this coordinator could not forward to
	// (open breaker or failed tracked send); UnreachableSize is the
	// measure of area ∩ their service areas, which the entry server adds
	// to its dark-cover tally so a degraded query still terminates fast
	// instead of waiting for the full query timeout. A child that took
	// the query but never acknowledged it is reported alone, once its
	// call timed out, with Leaf set to the child's id and service area:
	// only its acknowledgement may have been lost, so the entry server
	// voids the report when a leaf inside that area answers.
	Unreachable     []NodeID
	UnreachableSize float64
}

// RangeQueryRes is the entry server's assembled answer to the client.
type RangeQueryRes struct {
	Objs []core.Entry
	// Servers is the number of leaf servers that contributed.
	Servers int
	Hops    int
	// Partial marks a degraded answer: some leaves covering the query
	// area were unreachable, so Objs may be missing their records.
	// Unreachable names the dark servers (deduplicated): a missing record
	// lies in the service area of one of them, except that a server
	// whose parent failed it names that parent for everything beyond its
	// own subtree.
	Partial     bool
	Unreachable []NodeID
}

// ---------------------------------------------------------------------------
// Nearest-neighbor query (semantics in Section 3.2).

// NeighborQueryReq is a client's nearest-neighbor query, a call to its
// entry server, which resolves it with an expanding-ring search over the
// range-query machinery.
type NeighborQueryReq struct {
	P        geo.Point
	ReqAcc   float64
	NearQual float64
}

// NeighborQueryRes answers a nearest-neighbor query.
type NeighborQueryRes struct {
	Found             bool
	Nearest           core.Entry
	Near              []core.Entry
	GuaranteedMinDist float64
	// Partial marks a degraded answer: an unreachable leaf overlapped one
	// of the search rings, so a closer neighbor may exist on a dark
	// server. Unreachable names the dark servers (deduplicated).
	Partial     bool
	Unreachable []NodeID
}

// ---------------------------------------------------------------------------
// Event mechanism (paper Section 1 / future work in Section 8).

// EventKind selects a predicate type.
type EventKind int

// Supported predicates.
const (
	// EventCountAbove fires when at least Threshold objects are inside
	// Area ("more than five objects are in a certain area").
	EventCountAbove EventKind = iota + 1
	// EventMeeting fires when two tracked objects come within Distance
	// of each other on the same leaf ("two users of the system meet").
	EventMeeting
)

// EventSubscribe installs a predicate subscription. It is routed through
// the hierarchy like a range query: every leaf whose service area overlaps
// Area installs it, counts its local qualifying objects and reports count
// changes to the coordinator (the subscriber's entry server).
type EventSubscribe struct {
	SubID       string
	Kind        EventKind
	Area        core.Area
	ReqAcc      float64
	Threshold   int
	Distance    float64
	Coordinator NodeID
	Subscriber  NodeID
}

// EventUnsubscribe removes a subscription on every involved leaf, routed
// like the subscription itself.
type EventUnsubscribe struct {
	SubID string
	Area  core.Area
}

// EventCount reports one leaf's current count of qualifying objects for a
// subscription to the coordinator.
type EventCount struct {
	SubID string
	Leaf  NodeID
	Count int
	// Seq is the leaf's per-subscription report sequence number. The
	// transport models UDP and can reorder deliveries; the coordinator
	// ignores reports older than the newest it has applied per leaf (the
	// same staleness guard forwarding paths get from PathT).
	Seq uint64
}

// EventNotify is the asynchronous notification delivered to the subscriber
// when a predicate becomes true (and when it becomes false again).
type EventNotify struct {
	SubID string
	Fired bool
	// Total is the aggregate count for EventCountAbove predicates.
	Total int
	// Objs names the objects involved for EventMeeting predicates.
	Objs []core.OID
	// Seq is the sender's per-subscription notification sequence number.
	// Notifications are retried (a lost datagram must not lose a predicate
	// transition), so the subscriber dedupes on it; zero means unsequenced
	// and is always delivered.
	Seq uint64
}

// ---------------------------------------------------------------------------
// Diagnostics.

// DiagReq asks a server for its diagnostic snapshot — store occupancy,
// sighting-shard layout and the metrics registry. Operator tooling (lsctl
// stats) calls it against any server in the deployment.
type DiagReq struct{}

// ShardDiag is one sighting shard's occupancy and write-lock pressure
// sample, mirroring store.ShardStat.
type ShardDiag struct {
	Len       int
	Ops       int64
	Contended int64
}

// TierDiag is a leaf's tiered-sighting-storage snapshot, mirroring
// store.TierStats. Present (non-nil) in a DiagRes only when tiering is
// enabled.
type TierDiag struct {
	// MemtableBytes is the estimated resident size of all shard
	// memtables; RunBytes the run files' on-disk size; MetaBytes the
	// resident run metadata (bloom filters, sparse indexes, spatial leaf
	// directories, the spatial columns — position, id end and id of every
	// live run record — and object tables).
	MemtableBytes int64
	RunBytes      int64
	MetaBytes     int64
	// Runs counts run files across all shards; DiskRecords their records
	// (tombstones included); DiskLive the live subset.
	Runs        int
	DiskRecords int64
	DiskLive    int64
	// Flushes and Compactions are cumulative; BloomHits counts run
	// probes a bloom filter admitted, BloomMisses those it skipped.
	Flushes     int64
	Compactions int64
	BloomHits   int64
	BloomMisses int64
	// Backlog counts shards over the compaction threshold.
	Backlog int
}

// DiagRes answers a DiagReq.
type DiagRes struct {
	Server    NodeID
	IsLeaf    bool
	Visitors  int
	Sightings int
	// Shards describes the sighting store's shards: per-shard occupancy
	// and write-lock contention counters. One entry per shard on a leaf (a
	// default leaf has one shard); empty on non-leaf servers.
	Shards []ShardDiag
	// Tier is the tiered-storage snapshot; nil when tiering is disabled.
	Tier *TierDiag
	// PipelineOps and PipelineHandoffs are the update pipeline's
	// cumulative update count and how many of those queued behind a
	// group-commit lane leader.
	PipelineOps      int64
	PipelineHandoffs int64
	// EventSubs is the number of event subscriptions installed on this
	// server's leaf engine; EventCoordSubs the number it coordinates
	// (aggregating per-leaf counts). Both zero on non-leaf servers.
	EventSubs      int
	EventCoordSubs int
	// Metrics is the server's metrics registry snapshot, one metric per
	// line.
	Metrics string
}

// ---------------------------------------------------------------------------
// Generic responses.

// Ack is an empty success reply for one-way-style calls.
type Ack struct{}

// ErrorRes reports a failed call; Code is one of the core error names.
type ErrorRes struct {
	Code string
	Text string
}

func (RegisterReq) isMessage()      {}
func (RegisterRes) isMessage()      {}
func (RegisterFailed) isMessage()   {}
func (UpdateReq) isMessage()        {}
func (UpdateRes) isMessage()        {}
func (HandoverReq) isMessage()      {}
func (HandoverRes) isMessage()      {}
func (DeregisterReq) isMessage()    {}
func (DeregisterRes) isMessage()    {}
func (ChangeAccReq) isMessage()     {}
func (ChangeAccRes) isMessage()     {}
func (NotifyAvailAcc) isMessage()   {}
func (RequestUpdate) isMessage()    {}
func (PosQueryReq) isMessage()      {}
func (PosQueryDirect) isMessage()   {}
func (PosQueryRes) isMessage()      {}
func (PosQueryFwd) isMessage()      {}
func (RangeQueryReq) isMessage()    {}
func (RangeQueryFwd) isMessage()    {}
func (RangeQuerySubRes) isMessage() {}
func (RangeQueryRes) isMessage()    {}
func (NeighborQueryReq) isMessage() {}
func (NeighborQueryRes) isMessage() {}
func (EventSubscribe) isMessage()   {}
func (EventUnsubscribe) isMessage() {}
func (EventCount) isMessage()       {}
func (EventNotify) isMessage()      {}
func (DiagReq) isMessage()          {}
func (DiagRes) isMessage()          {}
func (Ack) isMessage()              {}
func (ErrorRes) isMessage()         {}
func (PathBatch) isMessage()        {}
