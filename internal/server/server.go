// Package server implements the hierarchical location server of the paper:
// the registration, update, handover and query-processing algorithms of
// Section 6 (Algorithms 6-1 … 6-5), the data-storage layout of Section 5,
// the distributed nearest-neighbor resolution whose semantics Section 3.2
// defines, and the three leaf-server caches of Section 6.5.
//
// One Server instance corresponds to one location server in the hierarchy.
// Leaf servers act as agents for the objects in their service area. A leaf
// keeps each object's visitor record (Section 5) in the sighting store, as a
// registration beside its sighting under one shard lock (store.Registration):
// registration, handover, deregistration, accuracy change and expiry change
// both in one store operation, and the store alone sets each index entry's
// accuracy. Non-leaf servers hold forwarding references only, in a
// store.VisitorDB: an inner server's forwarding table, a child slot and an
// int64 PathT per object; store.VisitorRecord is its log and API form.
// Servers communicate exclusively through their transport.Node, so the same
// implementation runs on the in-process simulation network and over UDP.
//
// # Recovery
//
// A killed leaf restarts from its own files: the registration log (WAL),
// the sighting log (SightingWAL, one segment per shard) and, when tiered,
// its runs. Every update acknowledged while its sighting log was up comes
// back, because each append reaches the OS before the update is answered.
// After a failed append the leaf keeps serving from memory and counts
// sighting_wal_down once; what it acknowledges from then on is lost at
// the next restart. There is no hot standby: until the leaf is back, its
// parent's breaker fails calls to it fast and queries over its area come
// back Partial.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// Options configure a Server.
type Options struct {
	// AchievableAcc is the best (smallest) accuracy this leaf's sensor
	// infrastructure and update regime can sustain, in meters. It is the
	// value computed in Algorithm 6-1 line 3. Default 10 m (GPS-grade).
	AchievableAcc float64
	// SightingTTL is the soft-state lifetime of sighting records
	// (Section 5); zero disables expiry. The janitor is the only expiry
	// detector: a record whose TTL passed is removed, and its visitor
	// deregistered, at the next janitor tick, so it may outlive its TTL by
	// up to one JanitorInterval.
	SightingTTL time.Duration
	// JanitorInterval is how often the janitor runs: it collects expired
	// visitors, maintains the storage tiers and compacts grown sighting WAL
	// segments. Zero picks a default from the enabled features
	// (SightingTTL/4; else 1m with a SightingWAL; at most 5s with
	// Tiering).
	JanitorInterval time.Duration
	// Shards partitions a leaf's sightingDB into that many independently
	// locked shards keyed by object id, so concurrent updates scale
	// across cores. 0 or 1 means one shard; negative counts are rejected
	// by New (store.NormalizeShards). The count is fixed for the server's
	// lifetime.
	Shards int
	// Tiering turns a leaf's sighting store into a two-tier LSM: the
	// in-memory shards become memtables and older versions migrate to
	// immutable sorted runs on disk (store.TierConfig documents the
	// knobs). Requires SightingWAL, whose directory holds the runs; New
	// refuses Tiering without one. The leaf recovers in the background:
	// reads are served from the run files as soon as the manifests are
	// open while the WAL tail replays shard by shard behind the shard
	// locks.
	Tiering *store.TierConfig
	// WAL persists the visitor records — an inner server's forwarding
	// table (a child slot and an int64 PathT per object; store.VisitorRecord
	// is its log and API form), a leaf's registrations, which its sighting store appends under
	// the shard lock before a change is acknowledged — and is replayed by
	// New and closed by Close; nil keeps them in memory only.
	WAL store.WAL
	// SightingWAL persists a leaf's sightingDB through one durable log
	// segment per shard; nil keeps the sighting store purely in memory
	// (the paper's baseline, rebuilt via RestoreVisitors after a crash).
	// When set, the store adopts the WAL's shard count whatever Shards
	// says, existing log contents are replayed (all shards in parallel,
	// after the WAL) before the server attaches to the network, and the
	// server closes the WAL on Close. A leaf with a SightingWAL but no WAL
	// recovers positions without registrations, which it does not serve
	// until the objects register again.
	SightingWAL *store.ShardedWAL
	// CallTimeout bounds hop-by-hop calls (handover forwarding).
	CallTimeout time.Duration
	// QueryTimeout bounds the entry server's wait for distributed query
	// results.
	QueryTimeout time.Duration
	// EnableAreaCache turns on the (leaf server → service area) cache,
	// which range queries use to fan out without the tree.
	EnableAreaCache bool
	// EnableAgentCache turns on the (object → agent) cache.
	EnableAgentCache bool
	// EnablePosCache turns on the (object → position descriptor) cache.
	EnablePosCache bool
	// Metrics receives the server's counters; a private registry is
	// created when nil.
	Metrics *metrics.Registry
	// PathRetry is the retry budget for forwarding-path propagation
	// (the createPath/removePath climbs), spent per batch: each batch of
	// path messages a server sends its parent is one tracked call. Path
	// messages are idempotent — every application is guarded by the
	// sighting timestamp (PutIfNewer / RemoveIf) — so each hop re-sends a
	// batch on a swept timeout instead of letting one lost datagram strand
	// an ancestor without (or with a stale) forwarding record. Event
	// notifications are sent with the same budget. The zero value enables
	// a small default budget; MaxAttempts 1 is a single tracked try whose
	// loss is counted.
	PathRetry transport.RetryPolicy
	// EventQueueDepth bounds the delta queue feeding a leaf's event
	// dispatcher. A full queue never blocks a commit: overflowing delta
	// batches are dropped and replaced by a full resync. Default 256.
	EventQueueDepth int
	// EventNotifyQueueDepth bounds each destination's FIFO notification
	// queue in the notifier (meeting notifications); overflow drops the
	// oldest. Default 256.
	EventNotifyQueueDepth int
	// EventResyncInterval is the event pipeline's periodic safety net: a
	// full re-evaluation of every subscription with forced count
	// re-reports, healing state a lost report or dropped delta left
	// stale. Default 30s.
	EventResyncInterval time.Duration
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.AchievableAcc <= 0 {
		o.AchievableAcc = 10
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 5 * time.Second
	}
	if o.QueryTimeout <= 0 {
		o.QueryTimeout = 5 * time.Second
	}
	if o.JanitorInterval <= 0 {
		// Derive the tick from the enabled features.
		if o.SightingTTL > 0 {
			o.JanitorInterval = o.SightingTTL / 4
		} else if o.SightingWAL != nil {
			// Even without soft-state expiry the janitor has work: it
			// drives the grow-triggered compaction of the WAL segments.
			o.JanitorInterval = time.Minute
		}
		if o.Tiering != nil && (o.JanitorInterval <= 0 || o.JanitorInterval > 5*time.Second) {
			// Tier maintenance (flush / compaction scheduling) wants a
			// responsive tick, not a TTL/4 of minutes or the leisurely
			// WAL-compaction default.
			o.JanitorInterval = 5 * time.Second
		}
	}
	if o.PathRetry.MaxAttempts == 0 {
		o.PathRetry = transport.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: 25 * time.Millisecond,
			MaxBackoff:  250 * time.Millisecond,
		}
	}
	if o.PathRetry.PerTryTimeout <= 0 {
		o.PathRetry.PerTryTimeout = o.CallTimeout
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	if o.EventQueueDepth <= 0 {
		o.EventQueueDepth = 256
	}
	if o.EventNotifyQueueDepth <= 0 {
		o.EventNotifyQueueDepth = 256
	}
	if o.EventResyncInterval <= 0 {
		o.EventResyncInterval = 30 * time.Second
	}
	return o
}

// Server is one location server of the hierarchy.
type Server struct {
	cfg      store.ConfigRecord
	rootArea core.Area
	opts     Options
	node     transport.Node
	// clk is the network's clock (transport.ClockOf): the server's
	// timestamps, timers and tickers all read it.
	clk clock.Clock

	// sightings is the main-memory sighting database (Section 5), of
	// Options.Shards shards, and holds the leaf's registrations; nil on
	// non-leaf servers.
	sightings *store.ShardedSightingDB
	// pipe batches concurrent position updates per shard (group commit);
	// every in-area update goes through it.
	pipe *store.UpdatePipeline
	// visitors is a non-leaf server's (persistent) forwarding table: a
	// child slot and an int64 PathT per object, VisitorRecord its log and
	// API form; nil on leaves.
	visitors *store.VisitorDB

	// paths carries path messages to the parent (forwardPath); nil on
	// the root.
	paths *pathStream

	caches *leafCaches
	pend   *pending
	events *events
	notify *notifier
	met    *metrics.Registry

	// dedupe remembers a leaf's replies to Seq-stamped requests so a
	// transport-level retry is applied exactly once; nil on non-leaves.
	dedupe *dedupe

	// rangeMet are the leaf's range-evaluation outcome counters.
	rangeMet rangeCounters
	// writeMet are the counters of the registration, update and handover
	// handlers.
	writeMet writeCounters

	// walDownReported, the janitor's, remembers that a dead sighting WAL
	// has been counted.
	walDownReported bool

	// ctx is the server's lifetime: Close cancels it, which stops the
	// background loops and aborts every outbound retry loop running under
	// it (path propagation, notifications).
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// bgMu guards stopped, which refuses new background work (notifier
	// drains) once Close has started waiting on wg —
	// an Add racing the Wait at counter zero is a WaitGroup misuse.
	bgMu    sync.Mutex
	stopped bool

	closeOnce sync.Once
}

// writeCounters are the counters the registration, update and handover
// handlers bump once or more per message, resolved once: Registry.Counter
// takes the registry's lock and hashes the name on every call.
type writeCounters struct {
	registerSeen, registerOK, registerFailed, registerDeduped *metrics.Counter
	updatesLocal, updatesDeduped                              *metrics.Counter
	handoverInitiated, handoverSeen, handoverAccepted         *metrics.Counter
}

func newWriteCounters(met *metrics.Registry) writeCounters {
	return writeCounters{
		registerSeen:      met.Counter("register_seen"),
		registerOK:        met.Counter("register_ok"),
		registerFailed:    met.Counter("register_failed"),
		registerDeduped:   met.Counter("register_deduped"),
		updatesLocal:      met.Counter("updates_local"),
		updatesDeduped:    met.Counter("updates_deduped"),
		handoverInitiated: met.Counter("handover_initiated"),
		handoverSeen:      met.Counter("handover_seen"),
		handoverAccepted:  met.Counter("handover_accepted"),
	}
}

// New creates the server described by cfg, attaches it to the network and
// starts its janitor. rootArea is the service area of the entire LS, which
// every server knows from deployment configuration; the entry server uses
// it to decide when a distributed range query is fully covered.
func New(cfg store.ConfigRecord, rootArea core.Area, network transport.Network, opts Options) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("server: invalid config: %w", err)
	}
	opts = opts.withDefaults()
	// On any failure past this point the server owns the passed-in WALs
	// (it would have closed them in Close), so release them rather than
	// leak fds to the caller.
	closeWALs := func() {
		if opts.WAL != nil {
			opts.WAL.Close()
		}
		if opts.SightingWAL != nil {
			opts.SightingWAL.Close()
		}
	}
	s := &Server{
		cfg:      cfg,
		rootArea: rootArea,
		opts:     opts,
		clk:      transport.ClockOf(network),
		caches:   newLeafCaches(opts),
		pend:     newPending(opts.Metrics),
		met:      opts.Metrics,
		writeMet: newWriteCounters(opts.Metrics),
	}
	if cfg.Parent != "" {
		s.paths = &pathStream{s: s, to: msg.NodeID(cfg.Parent)}
	}
	s.events = newEvents(cfg, opts.EventQueueDepth)
	s.notify = newNotifier(s)
	if cfg.IsLeaf() {
		if err := s.openLeafStore(); err != nil {
			closeWALs()
			return nil, fmt.Errorf("server %s: %w", cfg.ID, err)
		}
	} else {
		visitors, err := store.NewVisitorDB(opts.WAL)
		if err != nil {
			closeWALs()
			return nil, fmt.Errorf("server %s: opening visitorDB: %w", cfg.ID, err)
		}
		s.visitors = visitors
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	node, err := network.Attach(msg.NodeID(cfg.ID), s.handle)
	if err != nil {
		s.cancel()
		closeWALs()
		return nil, fmt.Errorf("server %s: attaching to network: %w", cfg.ID, err)
	}
	s.node = node
	// The loops' tickers are armed here, not in the goroutines, so they run
	// on the clock from New's return on.
	if cfg.IsLeaf() {
		s.wg.Add(1)
		go s.eventDispatcher(s.clk.NewTicker(opts.EventResyncInterval))
		if opts.JanitorInterval > 0 {
			s.wg.Add(1)
			go s.janitor(s.clk.NewTicker(opts.JanitorInterval))
		}
	}
	return s, nil
}

// openLeafStore builds a leaf's sighting store over its logs and recovers
// it. With a sighting WAL and tiers it recovers in the background: reads
// are served from the runs at once while each shard's WAL tail replays
// behind that shard's write lock. Close waits for the warm-up.
func (s *Server) openLeafStore() error {
	opts := s.opts
	s.rangeMet = newRangeCounters(s.met)
	shards, err := store.NormalizeShards(opts.Shards)
	if err != nil {
		return err
	}
	if opts.Tiering != nil && opts.SightingWAL == nil {
		return errors.New("Tiering requires a SightingWAL (the runs live in its directory)")
	}
	sopts := []store.SightingDBOption{
		store.WithTTL(opts.SightingTTL),
		store.WithClock(s.clk.Now),
		store.WithShards(shards),
	}
	if opts.WAL != nil {
		sopts = append(sopts, store.WithRegistrationLog(opts.WAL))
	}
	if opts.SightingWAL != nil {
		sopts = append(sopts, store.WithSightingWAL(opts.SightingWAL))
	}
	if opts.Tiering != nil {
		sopts = append(sopts, store.WithTiering(*opts.Tiering))
	}
	s.sightings = store.NewShardedSightingDB(sopts...)
	if err := s.sightings.RecoverBackground(); err != nil {
		return fmt.Errorf("recovering sightingDB: %w", err)
	}
	// Feed committed update deltas straight into the event dispatcher;
	// the enqueue never blocks the committing lane.
	s.pipe = store.NewUpdatePipeline(s.sightings, store.OnCommit(s.enqueueDeltas))
	s.dedupe = newDedupe(s.clk)
	return nil
}

// ID returns the server's node id.
func (s *Server) ID() msg.NodeID { return msg.NodeID(s.cfg.ID) }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.met }

// VisitorCount returns the number of visitor records (a leaf's
// registrations), mainly for tests and diagnostics.
func (s *Server) VisitorCount() int {
	if s.sightings != nil {
		return s.sightings.RegistrationCount()
	}
	return s.visitors.Len()
}

// SightingCount returns the number of sighting records on a leaf (zero on
// non-leaf servers).
func (s *Server) SightingCount() int {
	if s.sightings == nil {
		return 0
	}
	return s.sightings.Len()
}

// leafInfo returns this server's LeafInfo for cache piggybacking, valid
// only on leaves.
func (s *Server) leafInfo() msg.LeafInfo {
	if !s.cfg.IsLeaf() {
		return msg.LeafInfo{}
	}
	return msg.LeafInfo{ID: s.ID(), Area: s.cfg.SA}
}

// Close detaches the server from the network, stops its background
// goroutines and closes the stores. The order is load-bearing: stopped
// flips first (no new background work starts),
// the path messages still queued get their one best-effort send, the
// lifetime context is cancelled (loops stop, retry loops give up,
// unacknowledged path batches are abandoned), then the node detaches
// (in-flight outbound calls resolve instead of waiting out their
// timeouts), and only after every tracked task — janitor, event
// dispatcher, notifier drains — has drained do the WALs and tier
// manifests close underneath them.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.bgMu.Lock()
		s.stopped = true
		s.bgMu.Unlock()
		if s.paths != nil {
			s.paths.close()
		}
		s.cancel()
		if nerr := s.node.Close(); nerr != nil {
			err = nerr
		}
		s.wg.Wait()
		if s.sightings != nil {
			// A tiered leaf may still be replaying its WAL tail in the
			// background; closing the WAL underneath that replay would turn
			// an orderly shutdown into a spurious recovery failure.
			if werr := s.sightings.WaitRecovered(); werr != nil && err == nil {
				err = werr
			}
		}
		// The visitor log: an inner server's forwarding table, a leaf's
		// registration log.
		if s.opts.WAL != nil {
			if verr := s.opts.WAL.Close(); verr != nil && err == nil {
				err = verr
			}
		}
		if s.opts.SightingWAL != nil {
			if werr := s.opts.SightingWAL.Close(); werr != nil && err == nil {
				err = werr
			}
		}
	})
	return err
}

// handle is the transport handler: it dispatches every incoming message to
// the algorithm implementations. The transport runs it concurrently for
// every message, so handlers may block on nested calls (handover,
// distributed queries).
func (s *Server) handle(ctx context.Context, from msg.NodeID, m msg.Message) (msg.Message, error) {
	switch req := m.(type) {
	// Registration (Algorithm 6-1).
	case msg.RegisterReq:
		s.handleRegister(ctx, req)
		return nil, nil
	case msg.PathBatch:
		s.handlePathBatch(from, req)
		return nil, nil

	// Updates and handover (Algorithms 6-2, 6-3).
	case msg.UpdateReq:
		return s.handleUpdate(ctx, from, req)
	case msg.HandoverReq:
		return s.handleHandover(ctx, from, req)
	case msg.DeregisterReq:
		return s.handleDeregister(ctx, req)
	case msg.ChangeAccReq:
		return s.handleChangeAcc(req)

	// Position queries (Algorithm 6-4).
	case msg.PosQueryReq:
		return s.handlePosQuery(ctx, req)
	case msg.PosQueryDirect:
		return s.handlePosQueryDirect(req)
	case msg.PosQueryFwd:
		s.handlePosQueryFwd(from, req)
		return nil, nil
	case msg.PosQueryRes:
		s.pend.deliver(req.OpID, req)
		return nil, nil

	// Range queries (Algorithm 6-5).
	case msg.RangeQueryReq:
		return s.handleRangeQuery(ctx, req)
	case msg.RangeQueryFwd:
		s.handleRangeQueryFwd(from, req)
		return nil, nil
	case msg.RangeQuerySubRes:
		if len(req.Unreachable) == 0 {
			s.observeLeafInfo(req.Leaf)
		}
		s.pend.deliver(req.OpID, req)
		return nil, nil

	// Nearest neighbor (Section 3.2 semantics).
	case msg.NeighborQueryReq:
		return s.handleNeighborQuery(ctx, req)

	// Event mechanism (Section 1 / future work).
	case msg.EventSubscribe:
		s.handleEventSubscribe(from, req)
		return nil, nil
	case msg.EventUnsubscribe:
		s.handleEventUnsubscribe(from, req)
		return nil, nil
	case msg.EventCount:
		s.handleEventCount(req)
		return nil, nil

	// Diagnostics.
	case msg.DiagReq:
		return s.handleDiag()

	default:
		return nil, fmt.Errorf("%w: server %s cannot handle %T", core.ErrBadRequest, s.cfg.ID, m)
	}
}

// callCtx returns a context bounded by the hop-by-hop call timeout.
func (s *Server) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return s.clk.WithTimeout(ctx, s.opts.CallTimeout)
}

// inArea reports whether p lies in this server's service area.
func (s *Server) inArea(p geo.Point) bool {
	return s.cfg.SA.Contains(p)
}

// parent returns the parent node id; empty on the root.
func (s *Server) parent() msg.NodeID { return msg.NodeID(s.cfg.Parent) }

// janitor periodically deregisters visitors whose soft state expired
// (Section 5): their records are removed locally and the forwarding path is
// torn down bottom-up.
func (s *Server) janitor(ticker *clock.Ticker) {
	defer s.wg.Done()
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			s.janitorTick()
		}
	}
}

// janitorTick is one round of a leaf's periodic maintenance.
func (s *Server) janitorTick() {
	s.expireVisitors(s.sightings.Expired())
	// Forget the senders that have been silent for dedupeIdle, and
	// export what the table holds.
	senders, remembered := s.dedupe.sweep()
	s.met.Gauge("dedupe_senders").Set(int64(senders))
	s.met.Gauge("dedupe_remembered").Set(int64(remembered))
	// Surface a dead sighting WAL once: the store keeps serving (soft
	// state), but the operator must learn durability is gone before the
	// next crash proves it.
	if err := s.sightings.WALErr(); err != nil && !s.walDownReported {
		s.walDownReported = true
		s.met.Counter("sighting_wal_down").Inc()
	}
	// Refresh the shard occupancy, contention and tier gauges.
	s.shardMaintenance()
	// Keep the sighting WAL's replay time proportional to the live set:
	// compact any segment whose history outgrew it.
	if err := s.sightings.CompactWALIfGrown(); err != nil {
		s.met.Counter("sighting_wal_compact_errors").Inc()
	}
}

// expireVisitors removes a batch of expired visitors like
// deregistrations, detected by the janitor's Expired scan — the one expiry
// detector. The scan is stale by the time this runs, so the store removes
// an object only if its sighting is still expired under the shard lock:
// one that a concurrent update refreshed in the meantime stays live and
// nothing is torn down. The removal deltas feed the event engine once per
// batch, not once per id. It runs with no store locks held.
func (s *Server) expireVisitors(ids []core.OID) {
	var ds []store.Delta
	for _, id := range ids {
		d, sightT, ok, err := s.sightings.Deregister(id, true)
		if err != nil {
			s.met.Counter("visitor_db_errors").Inc()
		}
		if ok {
			s.met.Counter("soft_state_expired").Inc()
			s.removePath(id, sightT)
			ds = append(ds, d)
		}
	}
	s.enqueueDeltas(ds)
}

// removePath starts tearing down id's forwarding path above this leaf.
// The removePath carries the later of now and the removed sighting's time
// sightT, so no ancestor keeps a record the sighting installed.
func (s *Server) removePath(id core.OID, sightT time.Time) {
	lastT := s.clk.Now()
	if sightT.After(lastT) {
		lastT = sightT
	}
	s.forwardPath(msg.PathChange{Remove: true, OID: id, SightingT: lastT})
}

// RestoreVisitors asks every object registered at this leaf for a fresh
// position update. A recovering leaf server calls this after a restart:
// the registrations survived in the registration log while the sightingDB
// and its indexes were lost and are rebuilt as the update requests are
// answered (Section 5).
func (s *Server) RestoreVisitors() int {
	if !s.cfg.IsLeaf() {
		return 0
	}
	n := 0
	for id, reg := range s.sightings.Registrations() {
		if reg.RegInfo.Registrant != "" {
			if err := s.node.Send(msg.NodeID(reg.RegInfo.Registrant), msg.RequestUpdate{OID: id}); err == nil {
				n++
			}
		}
	}
	return n
}
