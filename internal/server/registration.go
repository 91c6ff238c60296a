package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/msg"
	"locsvc/internal/store"
	"locsvc/internal/transport"
	"locsvc/internal/wire"
)

// handleRegister implements Algorithm 6-1 (registration processing). The
// request is routed through the hierarchy to the leaf responsible for the
// initial sighting's position; that leaf decides on the offered accuracy,
// creates its records, triggers createPath and answers the registering
// instance directly.
func (s *Server) handleRegister(ctx context.Context, req msg.RegisterReq) {
	s.writeMet.registerSeen.Inc()
	req.Hops++

	if !s.inArea(req.S.Pos) {
		// Forward registration upwards (lines 20-21).
		parent := s.parent()
		if parent == "" {
			// Root: the position lies outside the entire service
			// area; the registration fails definitively.
			s.respondToOrigin(req.Origin, msg.RegisterFailed{
				OpID:   req.Origin.OpID,
				Server: s.ID(),
			})
			return
		}
		s.sendOrCount(parent, req)
		return
	}

	if !s.cfg.IsLeaf() {
		// Forward registration downwards (lines 16-18).
		child, ok := s.cfg.ChildFor(req.S.Pos)
		if !ok {
			s.respondToOrigin(req.Origin, msg.RegisterFailed{OpID: req.Origin.OpID, Server: s.ID()})
			return
		}
		s.sendOrCount(msg.NodeID(child.ID), req)
		return
	}

	// Leaf server responsible for the object's position (lines 2-15).
	// A malformed request is refused before anything is remembered,
	// stored or sent up the path.
	if err := errors.Join(req.S.Validate(), req.RegInfo.Validate(), floorErr(req.Seq, req.Floor)); err != nil {
		s.refuseRegister(req.Origin, msg.ErrorResFrom(fmt.Errorf("%w: %v", core.ErrBadRequest, err)))
		return
	}
	// A retried registration whose first application answered already
	// gets the remembered outcome, and a late copy is not applied (see
	// the wire package's retry-idempotency rules).
	if reply, ok := s.dedupe.lookup(req.Origin.Node, req.Seq, req.Floor); ok {
		s.writeMet.registerDeduped.Inc()
		if why, refused := reply.(msg.ErrorRes); refused {
			s.refuseRegister(req.Origin, why)
			return
		}
		s.respondToOrigin(req.Origin, reply)
		return
	}
	offered, ok := req.RegInfo.OfferedAcc(s.opts.AchievableAcc)
	if !ok {
		// Registration not successful (lines 13-14).
		s.writeMet.registerFailed.Inc()
		failed := msg.RegisterFailed{
			OpID:       req.Origin.OpID,
			Server:     s.ID(),
			Achievable: s.opts.AchievableAcc,
		}
		s.dedupe.remember(req.Origin.Node, req.Seq, failed)
		s.respondToOrigin(req.Origin, failed)
		return
	}

	// Lines 6-11: create the visitor and sighting records.
	if err := s.register(req.S, req.RegInfo, offered); err != nil {
		s.refuseRegister(req.Origin, msg.ErrorResFrom(err))
		return
	}
	s.writeMet.registerOK.Inc()
	// Line 5: create the forwarding path up to the root. The paper sends
	// createPath before it creates the records; it leaves here only once
	// they stand, so a registration the store refused leaves no
	// forwarding record at the ancestors that nothing would re-assert or
	// remove.
	s.forwardPath(msg.PathChange{OID: req.S.OID, Leaf: s.leafInfo(), SightingT: req.S.T})

	// Line 12: answer the registering instance.
	res := msg.RegisterRes{
		OpID:       req.Origin.OpID,
		Agent:      s.ID(),
		AgentInfo:  s.leafInfo(),
		OfferedAcc: offered,
		Hops:       req.Hops,
	}
	s.dedupe.remember(req.Origin.Node, req.Seq, res)
	s.respondToOrigin(req.Origin, res)
}

// refuseRegister answers a registration the leaf will not apply, under the
// request's OpID so that the registering instance can match it.
func (s *Server) refuseRegister(origin msg.Origin, why msg.ErrorRes) {
	s.respondToOrigin(origin, msg.RegisterFailed{OpID: origin.OpID, Server: s.ID(), Refused: why})
}

// handlePathBatch applies a child's batch of path messages in order, each
// by handleCreatePath or handleRemovePath, and passes the ones that climb
// on to this server's parent in one go. The transport's auto-ack covers
// the batch once all are applied.
func (s *Server) handlePathBatch(from msg.NodeID, b msg.PathBatch) {
	up := make([]msg.PathChange, 0, len(b.Changes))
	for _, c := range b.Changes {
		var climbs bool
		if c.Remove {
			climbs = s.handleRemovePath(from, c)
		} else {
			climbs = s.handleCreatePath(from, c)
		}
		if climbs {
			up = append(up, c)
		}
	}
	s.forwardPath(up...)
}

// handleCreatePath implements the createPath half of Algorithm 6-1: every
// server on the leaf-to-root path records a forwarding reference to the
// child it received the message from. It reports whether the message
// climbs on.
func (s *Server) handleCreatePath(from msg.NodeID, c msg.PathChange) bool {
	s.observeLeafInfo(c.Leaf)
	if s.cfg.IsLeaf() {
		// createPath climbs from a leaf to the root; one delivered to
		// a leaf can come only from misconfiguration. Ignore it.
		return false
	}
	if _, err := s.visitors.PutIfNewer(store.VisitorRecord{
		OID: c.OID, ForwardRef: string(from), PathT: c.SightingT,
	}); err != nil {
		s.met.Counter("visitor_db_errors").Inc()
		return false
	}
	// Forward upwards even when the local record was newer and refused
	// the update: the newer record may come from an intra-subtree
	// handover that never reached the ancestors, in which case this very
	// message carries the only information that re-points them onto this
	// subtree. Each ancestor applies or refuses independently by PathT.
	return true
}

// handleRemovePath tears a forwarding path down bottom-up: used by
// deregistration and soft-state expiry. A server only removes its record if
// the forwarding reference still points to the child the removal came from
// (the branch was not re-pointed meanwhile), and only a removal climbs on.
func (s *Server) handleRemovePath(from msg.NodeID, c msg.PathChange) bool {
	if s.cfg.IsLeaf() {
		return false // a leaf keeps no forwarding records
	}
	removed, err := s.visitors.RemoveIf(c.OID, func(rec store.VisitorRecord) bool {
		// A fresher sighting re-installed this record, or the path
		// was re-pointed away from the pruned branch: keep it.
		return !rec.PathT.After(c.SightingT) && rec.ForwardRef == string(from)
	})
	if err != nil {
		s.met.Counter("visitor_db_errors").Inc()
		return false
	}
	return removed
}

// respondToOrigin sends an operation response directly to the node the
// operation originated at.
func (s *Server) respondToOrigin(origin msg.Origin, m msg.Message) {
	if origin.Node == "" {
		return
	}
	s.sendOrCount(origin.Node, m)
}

// sendOrCount sends one-way, counting failures instead of propagating them
// — message loss is part of the UDP service model.
func (s *Server) sendOrCount(to msg.NodeID, m msg.Message) {
	if err := s.node.Send(to, m); err != nil {
		s.met.Counter("send_errors").Inc()
	}
}

// forwardPath queues path messages (createPath, removePath) for this
// server's parent on its path stream; on the root, which has no parent, it
// does nothing. Path messages are idempotent — every application is
// guarded by the sighting timestamp — but they are also the only copy of
// the information they carry: a lost createPath climb strands an ancestor
// without a record and turns later queries for the object into definitive
// not-founds. So unlike plain fan-out (where the query's own deadline
// bounds the damage), each hop re-sends until the peer's ack.
//
// The stream keeps one batch in flight: an idle stream sends what it is
// given at once, on the caller's goroutine, so the message is on its way
// before the caller answers its own request (Algorithm 6-1 answers the
// client before the climb completes, not before it starts). Whatever is
// queued while a batch is in flight leaves as the next batch, in one
// tracked call, as soon as that batch is acknowledged or its first try
// fails: no timer paces it, and a lost batch does not hold up the ones
// behind it. Over a loss-free link, path messages therefore arrive in the
// order they were queued.
//
// No goroutine waits for an acknowledgement: the call's resolution — the
// ack, or the sweeper's timeout — runs pathBatch.acked as a continuation,
// and a retry is a timer. A batch whose try fails is re-sent after the
// PathRetry backoff while the budget lasts (a budget of one attempt is one
// tracked try). Once it is spent, each of its messages counts
// path_propagation_failed once, and the batch is re-sent every
// pathReassertInterval, the re-sent messages counted in path_reasserted,
// until one try is acknowledged or every message has gone stale
// (pathCurrent): an ancestor the budget gave up on is repaired once the
// link heals. Close gives the messages still queued one best-effort send,
// as it does a message queued after it began, and abandons the batches
// still waiting for their acks.
func (s *Server) forwardPath(changes ...msg.PathChange) {
	if s.paths != nil && len(changes) > 0 {
		s.paths.enqueue(changes)
	}
}

// pathReassertInterval is the cadence at which a batch of path messages
// whose retry budget is spent is sent again until acknowledged. It is slow
// next to any budget's backoffs, so a peer that stays dark costs one
// tracked try per interval.
const pathReassertInterval = 5 * time.Second

// pathStream carries a server's path messages to its parent: a FIFO queue
// and a window of one batch (see forwardPath).
type pathStream struct {
	s  *Server
	to msg.NodeID

	mu    sync.Mutex
	queue []msg.PathChange
	// busy is set while a batch holds the window: from its first try until
	// that try is acknowledged or fails.
	busy bool
	// closed is set by Close, which takes the queue; from then on every
	// message gets one best-effort send.
	closed bool
}

// enqueue appends changes to the queue and, on an idle stream, sends them
// at once.
func (st *pathStream) enqueue(changes []msg.PathChange) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		st.sendBestEffort(changes)
		return
	}
	st.queue = append(st.queue, changes...)
	idle := !st.busy
	st.busy = true
	st.mu.Unlock()
	if idle {
		st.next()
	}
}

// next sends the next batch off the queue, as many messages as one
// envelope carries within a datagram, or idles the stream.
func (st *pathStream) next() {
	st.mu.Lock()
	if st.closed || len(st.queue) == 0 {
		st.busy = false
		st.mu.Unlock()
		return
	}
	n := wire.PathBatchPrefix(st.s.ID(), st.queue, transport.MaxDatagram)
	b := &pathBatch{st: st, changes: st.queue[:n:n], windowed: true}
	if st.queue = st.queue[n:]; len(st.queue) == 0 {
		st.queue = nil
	}
	st.mu.Unlock()
	b.try()
}

// close takes the queue and gives it its one best-effort send.
func (st *pathStream) close() {
	st.mu.Lock()
	st.closed = true
	queued := st.queue
	st.queue = nil
	st.mu.Unlock()
	st.sendBestEffort(queued)
}

// sendBestEffort sends changes one-way, in as many envelopes as the
// datagram limit asks for.
func (st *pathStream) sendBestEffort(changes []msg.PathChange) {
	for len(changes) > 0 {
		n := wire.PathBatchPrefix(st.s.ID(), changes, transport.MaxDatagram)
		st.s.sendOrCount(st.to, msg.PathBatch{Changes: changes[:n:n]})
		changes = changes[n:]
	}
}

// pathBatch is one batch of path messages on its way to its
// acknowledgement. Its steps run one after another — a try, the call's
// continuation, a timer — so its fields need no lock. Its changes are
// never written once sent: the receiver of an in-process delivery reads
// the same slice.
type pathBatch struct {
	st      *pathStream
	changes []msg.PathChange
	tries   int
	// windowed is set while the batch holds its stream's window. The
	// batch gives the window up, the first time it is acknowledged or
	// fails, by sending the next batch from the handler executor: the
	// goroutine that resolves a call may be a read loop or the sweeper,
	// which must not wait for an in-flight slot.
	windowed bool
	// spent is set once the retry budget is exhausted: from then on the
	// batch is re-sent every pathReassertInterval.
	spent bool
}

// try sends the batch as a call with the per-try deadline.
func (b *pathBatch) try() {
	s := b.st.s
	if s.ctx.Err() != nil {
		return
	}
	b.tries++
	ctx, cancel := s.clk.WithTimeout(s.ctx, s.opts.PathRetry.PerTryTimeout)
	pc, err := s.node.CallAsync(ctx, b.st.to, msg.PathBatch{Changes: b.changes})
	cancel() // tracker keeps its own deadline; cancel only ends the slot wait
	if err != nil {
		b.failed(err)
		return
	}
	pc.Then(b.acked)
}

// acked is the call's continuation (see PendingCall.Then): it runs on the
// goroutine that resolved the call and does not block.
func (b *pathBatch) acked(reply msg.Message) {
	if err := msg.AsError(reply); err != nil {
		b.failed(err)
		return
	}
	if b.windowed {
		b.windowed = false
		transport.Go(b.st.next)
	}
}

// failed schedules the next try: after the policy's backoff while the
// budget lasts and the error is one a retry clears, otherwise — the first
// time counted as path_propagation_failed, once per message — after
// pathReassertInterval. Shutdown ends it.
func (b *pathBatch) failed(err error) {
	if b.windowed {
		// The next batch leaves once this one's timer is armed.
		b.windowed = false
		defer transport.Go(b.st.next)
	}
	s := b.st.s
	if s.ctx.Err() != nil {
		return
	}
	pol := s.opts.PathRetry
	if !b.spent && b.tries < pol.MaxAttempts && transport.Retryable(err) {
		transport.CountRetry(s.node)
		s.clk.AfterFunc(pol.Backoff(b.tries), b.try)
		return
	}
	if !b.spent {
		b.spent = true
		s.met.Counter("path_propagation_failed").Add(int64(len(b.changes)))
	}
	s.clk.AfterFunc(pathReassertInterval, b.reassert)
}

// reassert re-sends a spent batch's messages that have not gone stale
// meanwhile, if any.
func (b *pathBatch) reassert() {
	s := b.st.s
	if s.ctx.Err() != nil {
		return
	}
	b.changes = slices.DeleteFunc(slices.Clone(b.changes), func(c msg.PathChange) bool { return !s.pathCurrent(c) })
	if len(b.changes) == 0 {
		return
	}
	s.met.Counter("path_reasserted").Add(int64(len(b.changes)))
	b.try()
}

// pathCurrent reports whether a path message is still worth re-sending. A
// createPath is while this server holds a record for its object: the
// object is in this subtree, so the ancestors should point here, and one
// holding a newer record refuses the message by PathT. Once the record is
// gone it is not, since a removed record leaves no PathT for an ancestor to
// refuse it by. A removePath always is: RemoveIf refuses it against any
// newer record.
func (s *Server) pathCurrent(c msg.PathChange) bool {
	if c.Remove {
		return true
	}
	var ok bool
	if s.sightings != nil {
		_, ok = s.sightings.Registration(c.OID)
	} else {
		_, ok = s.visitors.Get(c.OID)
	}
	return ok
}

// beginBackground reserves a slot in s.wg for work that must finish before
// Close tears the stores down; the caller releases it with s.wg.Done. It
// refuses once Close has begun.
func (s *Server) beginBackground() bool {
	s.bgMu.Lock()
	defer s.bgMu.Unlock()
	if s.stopped {
		return false
	}
	s.wg.Add(1)
	return true
}

// forward sends m to a hierarchy neighbor as a tracked one-way: the message
// goes out as a call so the peer's auto-acknowledgement (or an explicit
// response) feeds this node's per-peer breaker, and a swept timeout counts
// against the peer. The reply itself is not awaited — fan-out handlers
// return their results out-of-band to the query origin, exactly like
// sendOrCount — so forward costs one in-flight entry until the ack or the
// sweep, nothing more; a caller that wants to learn of a missing ack hands
// the returned call a continuation (PendingCall.Then). A non-nil error
// means the message was NOT handed to the network (open breaker, unknown
// destination, failed write): the destination is unreachable right now,
// which degraded queries translate into dark-cover accounting instead of
// waiting out a timeout.
func (s *Server) forward(to msg.NodeID, m msg.Message) (*transport.PendingCall, error) {
	ctx, cancel := s.clk.WithTimeout(context.Background(), s.opts.CallTimeout)
	defer cancel() // tracker keeps its own deadline; cancel only ends the slot wait
	pc, err := s.node.CallAsync(ctx, to, m)
	if err != nil {
		s.met.Counter("send_errors").Inc()
	}
	return pc, err
}

// handleDeregister processes a deregistration at the object's agent: the
// local records are removed and the forwarding path is torn down.
func (s *Server) handleDeregister(_ context.Context, req msg.DeregisterReq) (msg.Message, error) {
	if !s.cfg.IsLeaf() {
		return nil, core.ErrBadRequest
	}
	sightT, ok := s.deregister(req.OID)
	if !ok {
		return nil, core.ErrNotFound
	}
	s.removePath(req.OID, sightT)
	s.met.Counter("deregister_ok").Inc()
	return msg.DeregisterRes{}, nil
}

// handleChangeAcc renegotiates the accuracy range at the agent
// (Section 3.1). On success the registration is updated — the store
// rewrites the index entry's accuracy under the same lock — and the new
// offered accuracy returned; on failure the old registration stays valid.
func (s *Server) handleChangeAcc(req msg.ChangeAccReq) (msg.Message, error) {
	if !s.cfg.IsLeaf() {
		return nil, core.ErrBadRequest
	}
	var res msg.Message // stays nil for a malformed range
	registered, err := s.sightings.UpdateRegistration(req.OID, func(reg *store.Registration) bool {
		ri := reg.RegInfo
		ri.DesAcc, ri.MinAcc = req.DesAcc, req.MinAcc
		if ri.Validate() != nil {
			return false
		}
		offered, ok := ri.OfferedAcc(s.opts.AchievableAcc)
		if !ok {
			res = msg.ChangeAccRes{OK: false, OfferedAcc: s.opts.AchievableAcc}
			return false
		}
		reg.RegInfo, reg.OfferedAcc = ri, offered
		res = msg.ChangeAccRes{OK: true, OfferedAcc: offered}
		return true
	})
	switch {
	case err != nil:
		s.met.Counter("visitor_db_errors").Inc()
		return nil, err
	case !registered:
		return nil, core.ErrNotFound
	case res == nil:
		return nil, core.ErrBadRequest
	}
	return res, nil
}
