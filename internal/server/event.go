package server

import (
	"sync"
	"sync/atomic"

	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/spatial"
	"locsvc/internal/store"
)

// The event mechanism implements the predicate subscriptions sketched in
// the paper's introduction ("more than five objects are in a certain
// area", "two users of the system meet") and named as future work in
// Section 8. Subscriptions are routed through the hierarchy exactly like
// range queries: every leaf whose service area overlaps the subscription
// area installs it; the subscriber's entry server is the coordinator that
// aggregates per-leaf counts and notifies on predicate transitions.
//
// # The delta pipeline
//
// Evaluation is delta-driven. The store's commit path (UpdatePipeline
// group commits, removals, soft-state expiry) emits store.Delta records —
// op, object, old position, new position — which a single dispatcher
// goroutine per leaf consumes from a bounded queue. Subscription regions
// live in a spatial.RectIndex keyed by subscription id, so one delta is
// matched against only the subscriptions whose regions contain its old or
// new position (two point stabs, O(log S + matches)) instead of being
// re-evaluated against every installed subscription:
//
//   - Counting subscriptions maintain a membership set incrementally: a
//     delta flips one object in or out of the set (a boundary crossing),
//     and only a changed local count is reported to the coordinator. The
//     coordinator folds each seq-guarded report into a running total in
//     O(1) — it never re-sums all leaves.
//   - Meeting subscriptions track the currently-meeting pair set: a put
//     delta searches partners within the meeting distance around the new
//     position only; pairs that separate (or whose object left the area or
//     the store) are dropped, and a dropped pair re-fires if it re-meets.
//
// # Full scans: install, overflow and the periodic resync
//
// The delta pipeline is a leaf's only event engine. Next to it sits one
// full-scan evaluator that rebuilds a subscription's state from the store,
// and it serves three purposes, all on the dispatcher goroutine: the
// initial evaluation of a freshly installed subscription, the resync after
// an overflow, and a periodic safety net (Options.EventResyncInterval) that
// also force-re-reports counts so a permanently lost report cannot leave
// the coordinator stale forever. The delta queue never blocks a commit:
// when it is full the deltas are dropped, a flag is raised (plus the
// event_delta_overflow counter) and the dispatcher resyncs every
// subscription after finishing the item in hand.
//
// A leaf with no installed subscription queues nothing: the commit path
// drops its deltas on the spot (see enqueueDeltas for why the first
// subscription cannot miss a commit).
//
// # Notification delivery
//
// Reports and notifications leave through the server's notifier: bounded
// per-destination queues, each drained on demand by one task on the
// transport's handler executor that sends with the PathRetry budget, so a
// lost datagram does not lose a predicate transition and a slow or dead
// subscriber stalls only its own queue, never the update pipeline or
// other subscribers. Count reports and
// transition notifications coalesce latest-wins per subscription (the
// subscriber learns current state, not history); meeting notifications
// queue FIFO with a drop-oldest bound. Retries mean duplicates:
// coordinators drop stale EventCount seqs per leaf, and every EventNotify
// carries a seq the subscribing client dedupes on.
//
// Meeting predicates are evaluated leaf-locally: two objects whose
// positions come within the subscribed distance on the same leaf trigger a
// notification. Meetings exactly straddling a leaf boundary are missed —
// the accepted approximation of evaluating them leaf-locally.

// leafSub is one installed subscription on a leaf server. The mutable
// fields (members, firedPairs, lastCount, seq) are guarded by events.mu;
// every evaluation that writes them runs on the dispatcher goroutine.
type leafSub struct {
	sub msg.EventSubscribe
	// pred is a count subscription's membership predicate, prepared at
	// install: majority overlap (countOverlap) within ReqAcc.
	pred core.RangePredicate
	// bounds is the region the subscription matches against: the count
	// predicate's filter rectangle, outside which no position qualifies,
	// or the area enlarged by the meeting distance.
	bounds geo.Rect
	// members is the current set of locally qualifying objects of a count
	// subscription, maintained incrementally from deltas and rebuilt by
	// every full scan.
	members   map[core.OID]bool
	lastCount int
	// seq numbers this leaf's outgoing count reports and meeting
	// notifications. The transport models UDP and deliveries are retried,
	// so receivers dedupe on it. It is clock-seeded at install; see
	// installSubscription.
	seq uint64
	// firedPairs is the set of currently-meeting pairs: a pair fires once
	// when it forms and is dropped when it separates (re-meeting re-fires).
	firedPairs map[pairKey]bool
}

type pairKey struct{ a, b core.OID }

func orderedPair(a, b core.OID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a: a, b: b}
}

// coordSub is the coordinator-side state of one subscription.
type coordSub struct {
	sub     msg.EventSubscribe
	perLeaf map[msg.NodeID]int
	// perLeafSeq remembers the newest report sequence applied per leaf;
	// older (reordered or re-sent) reports are discarded.
	perLeafSeq map[msg.NodeID]uint64
	// total is the running aggregate, folded incrementally from per-leaf
	// report deltas — O(1) per report. Reports carry absolute per-leaf
	// counts, so the fold self-heals after any accepted report.
	total int
	fired bool
	// notifySeq numbers transition notifications to the subscriber
	// (clock-seeded at creation, like leafSub.seq).
	notifySeq uint64
}

// events bundles the per-server event state.
type events struct {
	mu    sync.Mutex
	local map[string]*leafSub
	coord map[string]*coordSub
	// nlocal is len(local), written under mu and read without it by the
	// commit path (enqueueDeltas).
	nlocal atomic.Int64
	// idx spatially indexes installed subscription regions by SubID; nil
	// on non-leaf servers, which never install a subscription.
	idx *spatial.RectIndex
	// work feeds the dispatcher goroutine; nil when idx is.
	work chan eventWork
	// resyncNeeded is raised when deltas were dropped (queue overflow);
	// the dispatcher resyncs all subscriptions at the next opportunity.
	resyncNeeded atomic.Bool
}

// eventWork is one dispatcher queue item: a committed delta batch, or a
// freshly installed subscription to evaluate.
type eventWork struct {
	deltas  []store.Delta
	install *leafSub
}

// newEvents returns the event state of the server cfg describes. Only
// leaves evaluate subscriptions against sightings, so only they get the
// subscription index and the dispatcher queue; everywhere else the events
// struct just routes and coordinates.
func newEvents(cfg store.ConfigRecord, queueDepth int) *events {
	e := &events{
		local: make(map[string]*leafSub),
		coord: make(map[string]*coordSub),
	}
	if cfg.IsLeaf() {
		e.idx = spatial.NewRectIndex(cfg.SA.Bounds())
		e.work = make(chan eventWork, queueDepth)
	}
	return e
}

// countReport is a pending leaf→coordinator count report, collected under
// events.mu and sent after it is released.
type countReport struct {
	sub   msg.EventSubscribe
	count int
	seq   uint64
}

// meetingFire is a pending meeting notification.
type meetingFire struct {
	sub  msg.EventSubscribe
	pair pairKey
	seq  uint64
}

// countOverlap is the overlap degree a count subscription's member must
// reach: majority overlap, a pragmatic middle ground for "object is in the
// area".
const countOverlap = 0.5

// handleEventSubscribe routes and installs a subscription. Routing follows
// the range-query pattern: climb while part of the area is outside the
// receiver's service area, fan out to overlapping children.
func (s *Server) handleEventSubscribe(from msg.NodeID, sub msg.EventSubscribe) {
	bounds := sub.Area.Bounds().Enlarge(sub.ReqAcc)

	if s.cfg.IsLeaf() {
		// The subscriber's entry leaf coordinates the subscription even
		// when the area lies entirely on other leaves.
		if sub.Coordinator == s.ID() && from == sub.Subscriber {
			s.ensureCoordinator(sub)
		}
		if bounds.Intersects(s.cfg.SA.Bounds()) {
			s.installSubscription(sub)
		}
		// If the area extends beyond this leaf, keep routing from here.
		if sub.Coordinator == s.ID() && from == sub.Subscriber {
			if parent := s.parent(); parent != "" && !s.cfg.SA.Bounds().ContainsRect(bounds) {
				s.sendOrCount(parent, sub)
			}
		}
		return
	}
	for _, child := range s.cfg.Children {
		if msg.NodeID(child.ID) == from {
			continue
		}
		if bounds.Intersects(child.SA.Bounds()) {
			s.sendOrCount(msg.NodeID(child.ID), sub)
		}
	}
	if parent := s.parent(); parent != "" && from != parent && !s.cfg.SA.Bounds().ContainsRect(bounds) {
		s.sendOrCount(parent, sub)
	}
}

// installSubscription registers the subscription locally and queues its
// initial evaluation on the dispatcher.
func (s *Server) installSubscription(sub msg.EventSubscribe) {
	e := s.events
	e.mu.Lock()
	ls, exists := e.local[sub.SubID]
	if !exists {
		ls = &leafSub{
			sub:       sub,
			lastCount: -1,
			// Seed the report sequence from the clock: a re-installed
			// subscription (unsubscribe + resubscribe under the same
			// SubID) starts above any sequence its previous incarnation
			// could have reached, so a stale in-flight report from the
			// old epoch cannot outrank fresh ones at the coordinator.
			seq:        uint64(s.clk.Now().UnixNano()),
			members:    make(map[core.OID]bool),
			firedPairs: make(map[pairKey]bool),
		}
		if sub.Kind == msg.EventMeeting {
			ls.bounds = sub.Area.Bounds().Enlarge(sub.Distance)
		} else {
			// A member's position lies in the filter rectangle, so a
			// delta moving it out still stabs the subscription at its
			// old position.
			ls.pred.Prepare(sub.Area, sub.ReqAcc, countOverlap)
			ls.bounds = ls.pred.Bounds()
		}
		e.local[sub.SubID] = ls
		e.nlocal.Add(1)
		e.idx.Insert(sub.SubID, ls.bounds)
		s.met.Gauge("event_subscriptions").Add(1)
	}
	if sub.Coordinator == s.ID() {
		s.ensureCoordinatorLocked(sub)
	}
	e.mu.Unlock()
	select {
	case e.work <- eventWork{install: ls}:
	default:
		// Queue full: the overflow resync will pick the new subscription
		// up along with everything else.
		e.resyncNeeded.Store(true)
		s.met.Counter("event_delta_overflow").Inc()
	}
}

// ensureCoordinator registers this server as the subscription's
// coordinator (aggregating per-leaf reports), independently of whether
// the area touches this leaf's own service area.
func (s *Server) ensureCoordinator(sub msg.EventSubscribe) {
	s.events.mu.Lock()
	s.ensureCoordinatorLocked(sub)
	s.events.mu.Unlock()
}

func (s *Server) ensureCoordinatorLocked(sub msg.EventSubscribe) {
	if _, ok := s.events.coord[sub.SubID]; ok {
		return
	}
	s.events.coord[sub.SubID] = &coordSub{
		sub:        sub,
		perLeaf:    make(map[msg.NodeID]int),
		perLeafSeq: make(map[msg.NodeID]uint64),
		notifySeq:  uint64(s.clk.Now().UnixNano()),
	}
}

// handleEventUnsubscribe removes the subscription, routed like subscribe.
func (s *Server) handleEventUnsubscribe(from msg.NodeID, req msg.EventUnsubscribe) {
	bounds := req.Area.Bounds()
	if s.cfg.IsLeaf() {
		e := s.events
		e.mu.Lock()
		if _, existed := e.local[req.SubID]; existed {
			delete(e.local, req.SubID)
			e.nlocal.Add(-1)
			e.idx.Remove(req.SubID)
			s.met.Gauge("event_subscriptions").Add(-1)
		}
		delete(e.coord, req.SubID)
		e.mu.Unlock()
		if parent := s.parent(); parent != "" && from != parent && !s.cfg.SA.Bounds().ContainsRect(bounds) {
			s.sendOrCount(parent, req)
		}
		return
	}
	for _, child := range s.cfg.Children {
		if msg.NodeID(child.ID) == from {
			continue
		}
		if bounds.Intersects(child.SA.Bounds()) {
			s.sendOrCount(msg.NodeID(child.ID), req)
		}
	}
	if parent := s.parent(); parent != "" && from != parent && !s.cfg.SA.Bounds().ContainsRect(bounds) {
		s.sendOrCount(parent, req)
	}
}

// handleEventCount folds one leaf's seq-guarded count report into the
// coordinator's running total and notifies the subscriber on predicate
// transitions. O(1) per report regardless of how many leaves participate.
func (s *Server) handleEventCount(req msg.EventCount) {
	s.events.mu.Lock()
	cs, ok := s.events.coord[req.SubID]
	if !ok {
		s.events.mu.Unlock()
		return
	}
	if req.Seq <= cs.perLeafSeq[req.Leaf] {
		// A newer report from this leaf was already applied; this one
		// was reordered in flight or is a retry duplicate.
		s.events.mu.Unlock()
		return
	}
	cs.perLeafSeq[req.Leaf] = req.Seq
	cs.total += req.Count - cs.perLeaf[req.Leaf]
	cs.perLeaf[req.Leaf] = req.Count
	nowFired := cs.total >= cs.sub.Threshold
	transition := nowFired != cs.fired
	cs.fired = nowFired
	total := cs.total
	sub := cs.sub
	var seq uint64
	if transition {
		cs.notifySeq++
		seq = cs.notifySeq
	}
	s.events.mu.Unlock()

	if transition {
		s.met.Counter("event_notifications").Inc()
		s.notify.EnqueueKeyed(sub.Subscriber, "notify:"+sub.SubID,
			msg.EventNotify{SubID: sub.SubID, Fired: nowFired, Total: total, Seq: seq})
	}
}

// ---------------------------------------------------------------------------
// The delta path.

// enqueueDeltas hands a committed delta batch — from the pipeline's
// OnCommit hook or a removal path (deregistration, handover departure,
// soft-state expiry) — to the dispatcher without ever blocking the
// committing goroutine: a full queue drops the batch and schedules a full
// resync instead.
//
// A leaf with no installed subscription drops the batch on the spot. That
// cannot lose a commit the first subscription needs: the commit happens
// before this call reads nlocal, so a read of 0 precedes the first
// subscription's increment, and that subscription's install evaluation —
// queued after the increment, run on the dispatcher — scans a store that
// already holds the commit.
func (s *Server) enqueueDeltas(ds []store.Delta) {
	if len(ds) == 0 || s.events.nlocal.Load() == 0 {
		return
	}
	select {
	case s.events.work <- eventWork{deltas: ds}:
	default:
		s.events.resyncNeeded.Store(true)
		s.met.Counter("event_delta_overflow").Inc()
	}
}

// eventDispatcher is the single consumer of the delta queue on a leaf and
// the only goroutine that evaluates subscriptions. Running evaluation on
// one goroutine keeps the incremental state free of cross-evaluation races
// by construction; backpressure is the bounded queue plus the
// overflow→resync policy, never a blocked committer.
func (s *Server) eventDispatcher(tick *clock.Ticker) {
	defer s.wg.Done()
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case w := <-s.events.work:
			if w.install != nil {
				s.resyncSub(w.install, false)
			} else {
				s.applyDeltas(w.deltas)
			}
			if s.events.resyncNeeded.Swap(false) {
				s.resyncAfterOverflow()
			}
		case <-tick.C:
			// Periodic safety net: rebuild from the store and force
			// re-reports, healing anything a lost report or dropped
			// delta left stale.
			s.resyncAllSubs()
		}
	}
}

// resyncAfterOverflow discards everything queued, then resyncs every
// subscription. The queued deltas are older than the dropped one: applied
// after the resync, a stale one would move its object back to a position no
// later delta corrects. Whatever is queued — installs included — committed
// or was installed before the scan, so the scan covers it; a delta queued
// after the discard is newer than any dropped one, and applying it after
// the scan is safe because an object's deltas arrive in commit order.
func (s *Server) resyncAfterOverflow() {
	for {
		select {
		case <-s.events.work:
		default:
			s.resyncAllSubs()
			return
		}
	}
}

// applyDeltas matches one committed batch against the subscription index
// and applies each delta incrementally. Reports and notifications are
// collected under events.mu and sent after it is released.
func (s *Server) applyDeltas(ds []store.Delta) {
	e := s.events
	var reports []countReport
	var fires []meetingFire
	dirty := make(map[*leafSub]bool)
	e.mu.Lock()
	for i := range ds {
		d := ds[i]
		var seen map[*leafSub]bool
		visit := func(id string, _ geo.Rect) bool {
			ls := e.local[id]
			if ls == nil || seen[ls] {
				return true
			}
			if seen == nil {
				seen = make(map[*leafSub]bool, 4)
			}
			seen[ls] = true
			switch ls.sub.Kind {
			case msg.EventCountAbove:
				if s.applyCountDelta(ls, d) {
					dirty[ls] = true
				}
			case msg.EventMeeting:
				fires = s.applyMeetingDelta(ls, d, fires)
			}
			return true
		}
		// A delta touches a subscription if its old or new position lies
		// in the subscription's region — two point stabs.
		if d.HasOld {
			e.idx.Stab(d.Old, visit)
		}
		if d.Op == store.DeltaPut && (!d.HasOld || d.New != d.Old) {
			e.idx.Stab(d.New, visit)
		}
	}
	// One report per subscription per batch, however many deltas touched
	// it.
	for ls := range dirty {
		count := len(ls.members)
		if count != ls.lastCount {
			ls.lastCount = count
			ls.seq++
			reports = append(reports, countReport{sub: ls.sub, count: count, seq: ls.seq})
		}
	}
	e.mu.Unlock()
	for _, r := range reports {
		s.reportCount(r)
	}
	for _, f := range fires {
		s.fireMeeting(f)
	}
}

// applyCountDelta flips one object's membership in a count subscription
// and reports whether it changed. Caller holds events.mu.
func (s *Server) applyCountDelta(ls *leafSub, d store.Delta) bool {
	now := false
	if d.Op == store.DeltaPut && ls.bounds.ContainsClosed(d.New) {
		reg, ok := s.sightings.Registration(d.OID)
		now = ok && ls.counts(d.New, reg.OfferedAcc)
	}
	was := ls.members[d.OID]
	if now == was {
		return false
	}
	if now {
		ls.members[d.OID] = true
	} else {
		delete(ls.members, d.OID)
	}
	return true
}

// applyMeetingDelta updates one meeting subscription's pair set for one
// delta: partners are searched only within the meeting distance around the
// new position, pairs that separated are dropped, newly formed pairs are
// appended to fires. Caller holds events.mu.
func (s *Server) applyMeetingDelta(ls *leafSub, d store.Delta, fires []meetingFire) []meetingFire {
	sub := ls.sub
	var cur map[core.OID]bool
	if d.Op == store.DeltaPut && ls.bounds.ContainsClosed(d.New) {
		r := geo.RectAround(d.New, sub.Distance).Intersect(ls.bounds)
		s.sightings.SearchArea(r, func(sight core.Sighting) bool {
			if sight.OID != d.OID && sight.Pos.Dist(d.New) <= sub.Distance {
				if cur == nil {
					cur = make(map[core.OID]bool, 4)
				}
				cur[sight.OID] = true
			}
			return true
		})
	}
	// Pairs involving the object that are no longer meeting separate
	// silently; re-meeting later re-fires.
	for k := range ls.firedPairs {
		if k.a != d.OID && k.b != d.OID {
			continue
		}
		other := k.a
		if other == d.OID {
			other = k.b
		}
		if !cur[other] {
			delete(ls.firedPairs, k)
		}
	}
	for q := range cur {
		k := orderedPair(d.OID, q)
		if !ls.firedPairs[k] {
			ls.firedPairs[k] = true
			ls.seq++
			fires = append(fires, meetingFire{sub: sub, pair: k, seq: ls.seq})
		}
	}
	return fires
}

// ---------------------------------------------------------------------------
// The full-scan evaluator: install evaluation, overflow and periodic resync.

// resyncAllSubs re-evaluates every installed subscription from the store
// and re-reports every count, changed or not.
func (s *Server) resyncAllSubs() {
	e := s.events
	e.mu.Lock()
	subs := make([]*leafSub, 0, len(e.local))
	for _, ls := range e.local {
		subs = append(subs, ls)
	}
	e.mu.Unlock()
	for _, ls := range subs {
		s.resyncSub(ls, true)
	}
}

// resyncSub rebuilds one subscription's state from a full store scan;
// force re-reports a count even when unchanged. It runs on the dispatcher
// goroutine only — the install evaluation, the overflow resync and the
// periodic tick all come from there — so no two evaluations of a
// subscription overlap, and the scan itself runs outside events.mu.
func (s *Server) resyncSub(ls *leafSub, force bool) {
	switch ls.sub.Kind {
	case msg.EventCountAbove:
		s.resyncCount(ls, force)
	case msg.EventMeeting:
		s.resyncMeeting(ls)
	}
}

// resyncCount recounts a subscription's qualifying objects from the store
// and reports a changed (or, when force is set, any) count to the
// coordinator.
func (s *Server) resyncCount(ls *leafSub, force bool) {
	sub := ls.sub
	members := make(map[core.OID]bool)
	s.sightings.SearchBuckets(ls.bounds, func(items []spatial.Item, _ geo.Rect, inside bool) bool {
		for i := range items {
			if it := &items[i]; (inside || ls.bounds.ContainsClosed(it.Pos)) && ls.counts(it.Pos, it.Acc) {
				members[it.ID] = true
			}
		}
		return true
	})
	count := len(members)

	s.events.mu.Lock()
	if s.events.local[sub.SubID] != ls {
		// Unsubscribed while the scan ran.
		s.events.mu.Unlock()
		return
	}
	ls.members = members
	changed := count != ls.lastCount
	ls.lastCount = count
	var seq uint64
	if changed || force {
		ls.seq++
		seq = ls.seq
	}
	s.events.mu.Unlock()
	if changed || force {
		s.reportCount(countReport{sub: sub, count: count, seq: seq})
	}
}

// resyncMeeting recomputes a subscription's currently-meeting pair set
// from the store and fires the pairs that formed since the last known
// state.
func (s *Server) resyncMeeting(ls *leafSub) {
	sub := ls.sub
	var inArea []core.Sighting
	s.sightings.SearchArea(ls.bounds, func(sight core.Sighting) bool {
		inArea = append(inArea, sight)
		return true
	})
	meeting := make(map[pairKey]bool)
	for i := 0; i < len(inArea); i++ {
		for j := i + 1; j < len(inArea); j++ {
			if inArea[i].Pos.Dist(inArea[j].Pos) <= sub.Distance {
				meeting[orderedPair(inArea[i].OID, inArea[j].OID)] = true
			}
		}
	}

	var fires []meetingFire
	s.events.mu.Lock()
	if s.events.local[sub.SubID] != ls {
		s.events.mu.Unlock()
		return
	}
	for k := range meeting {
		if !ls.firedPairs[k] {
			ls.seq++
			fires = append(fires, meetingFire{sub: sub, pair: k, seq: ls.seq})
		}
	}
	ls.firedPairs = meeting
	s.events.mu.Unlock()
	for _, f := range fires {
		s.fireMeeting(f)
	}
}

// counts decides membership of one object in a count subscription: the
// object must be registered (acc is its offered accuracy, store.AccUnknown
// when it is not), and its location descriptor must pass the prepared
// predicate, which decides as Area.RangeQualifies does.
func (ls *leafSub) counts(pos geo.Point, acc float64) bool {
	if acc == store.AccUnknown {
		return false
	}
	ok, _ := ls.pred.Qualifies(core.LocationDescriptor{Pos: pos, Acc: acc})
	return ok
}

// reportCount sends one count report to the coordinator, coalescing
// latest-wins per subscription through the notifier.
func (s *Server) reportCount(r countReport) {
	s.notify.EnqueueKeyed(r.sub.Coordinator, "count:"+r.sub.SubID,
		msg.EventCount{SubID: r.sub.SubID, Leaf: s.ID(), Count: r.count, Seq: r.seq})
}

// fireMeeting sends one meeting notification to the subscriber.
func (s *Server) fireMeeting(f meetingFire) {
	s.met.Counter("event_notifications").Inc()
	s.notify.EnqueueFIFO(f.sub.Subscriber, msg.EventNotify{
		SubID: f.sub.SubID,
		Fired: true,
		Objs:  []core.OID{f.pair.a, f.pair.b},
		Seq:   f.seq,
	})
}
