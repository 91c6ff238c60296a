package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/msg"
	"locsvc/internal/store"
	"locsvc/internal/transport"
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
		child, ok := s.childFor(req.S.Pos)
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
		s.respondToOrigin(req.Origin, msg.ErrorResFrom(fmt.Errorf("%w: %v", core.ErrBadRequest, err)))
		return
	}
	// A retried registration whose first application answered already
	// gets the remembered outcome, and a late copy is not applied (see
	// the wire package's retry-idempotency rules).
	if reply, ok := s.dedupe.lookup(req.Origin.Node, req.Seq, req.Floor); ok {
		s.writeMet.registerDeduped.Inc()
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

	// Line 5: create the forwarding path up to the root.
	if s.parent() != "" {
		s.forwardPath(s.parent(), msg.CreatePath{
			OID: req.S.OID, Leaf: s.leafInfo(), SightingT: req.S.T,
		})
	}
	// Lines 6-11: create the visitor and sighting records.
	if err := s.register(req.S, req.RegInfo, offered); err != nil {
		s.respondToOrigin(req.Origin, msg.ErrorResFrom(err))
		return
	}
	s.writeMet.registerOK.Inc()

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

// handleCreatePath implements the createPath half of Algorithm 6-1: every
// server on the leaf-to-root path records a forwarding reference to the
// child it received the message from.
func (s *Server) handleCreatePath(from msg.NodeID, req msg.CreatePath) {
	s.observeLeafInfo(req.Leaf)
	if s.cfg.IsLeaf() {
		// CreatePath climbs from a leaf to the root; one delivered to
		// a leaf can come only from misconfiguration. Ignore it.
		return
	}
	if _, err := s.visitors.PutIfNewer(store.VisitorRecord{
		OID: req.OID, ForwardRef: string(from), PathT: req.SightingT,
	}); err != nil {
		s.met.Counter("visitor_db_errors").Inc()
		return
	}
	// Forward upwards even when the local record was newer and refused
	// the update: the newer record may come from an intra-subtree
	// handover that never reached the ancestors, in which case this very
	// message carries the only information that re-points them onto this
	// subtree. Each ancestor applies or refuses independently by PathT.
	if s.parent() != "" {
		s.forwardPath(s.parent(), req)
	}
}

// handleRemovePath tears a forwarding path down bottom-up: used by
// deregistration and soft-state expiry. A server only removes its record if
// the forwarding reference still points to the child the removal came from
// (the branch was not re-pointed meanwhile).
func (s *Server) handleRemovePath(from msg.NodeID, req msg.RemovePath) {
	if s.cfg.IsLeaf() {
		return // a leaf keeps no forwarding records
	}
	removed, err := s.visitors.RemoveIf(req.OID, func(rec store.VisitorRecord) bool {
		// A fresher sighting re-installed this record, or the path
		// was re-pointed away from the pruned branch: keep it.
		return !rec.PathT.After(req.SightingT) && rec.ForwardRef == string(from)
	})
	if err != nil {
		s.met.Counter("visitor_db_errors").Inc()
		return
	}
	if removed && s.parent() != "" {
		s.forwardPath(s.parent(), req)
	}
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

// forwardPath propagates a forwarding-path change (CreatePath, RemovePath)
// one hop with the PathRetry budget. Path messages are idempotent — every
// application is guarded by the sighting timestamp — but they are also the
// only copy of the information they carry: a lost CreatePath climb strands
// an ancestor without a record and turns later queries for the object into
// definitive not-founds. So unlike plain fan-out (where the query's own
// deadline bounds the damage), each hop re-sends until the peer's ack or
// the budget runs out.
//
// The first send happens here, on the caller's goroutine, so the message is
// on its way before the caller answers its own request; what is off the
// request path by design (Algorithm 6-1 answers the client before the climb
// completes) is the wait for the ack. No goroutine does that waiting: the
// call's resolution — the ack, or the sweeper's timeout — runs pathSend.acked
// as a continuation, and a retry is a timer. A population registering at
// once therefore costs one in-flight table entry per unacknowledged path
// message, not a parked stack. A message that spends its budget (a budget
// of one attempt is one tracked try) counts path_propagation_failed once
// and is then re-sent every pathReassertInterval, each re-send counted in
// path_reasserted, until one is acknowledged or the message goes stale
// (pathCurrent): an ancestor the budget gave up on is repaired once the
// link heals. Close abandons what is pending through the server's context;
// once it has begun, a message gets one best-effort send instead.
func (s *Server) forwardPath(to msg.NodeID, m msg.Message) {
	if s.ctx.Err() != nil {
		s.sendOrCount(to, m)
		return
	}
	(&pathSend{s: s, to: to, m: m}).try()
}

// pathReassertInterval is the cadence at which a path message whose retry
// budget is spent is sent again until acknowledged. It is slow next to any
// budget's backoffs, so a peer that stays dark costs one tracked try per
// interval.
const pathReassertInterval = 5 * time.Second

// pathSend is one forwarding-path message on its way to its acknowledgement.
// Its steps run one after another — a try, the call's continuation, a timer
// — so its fields need no lock.
type pathSend struct {
	s     *Server
	to    msg.NodeID
	m     msg.Message
	tries int
	// spent is set once the retry budget is exhausted: from then on the
	// message is re-sent every pathReassertInterval.
	spent bool
}

// try sends the message as a call with the per-try deadline.
func (p *pathSend) try() {
	s := p.s
	if s.ctx.Err() != nil {
		return
	}
	p.tries++
	ctx, cancel := s.clk.WithTimeout(s.ctx, s.opts.PathRetry.PerTryTimeout)
	pc, err := s.node.CallAsync(ctx, p.to, p.m)
	cancel() // tracker keeps its own deadline; cancel only ends the slot wait
	if err != nil {
		p.failed(err)
		return
	}
	pc.Then(p.acked)
}

// acked is the call's continuation (see PendingCall.Then): it runs on the
// goroutine that resolved the call and does not block.
func (p *pathSend) acked(reply msg.Message) {
	if err := msg.AsError(reply); err != nil {
		p.failed(err)
	}
}

// failed schedules the next try: after the policy's backoff while the
// budget lasts and the error is one a retry clears, otherwise — the first
// time counted as path_propagation_failed — after pathReassertInterval.
// Shutdown ends it.
func (p *pathSend) failed(err error) {
	s := p.s
	if s.ctx.Err() != nil {
		return
	}
	pol := s.opts.PathRetry
	if !p.spent && p.tries < pol.MaxAttempts && transport.Retryable(err) {
		transport.CountRetry(s.node)
		s.clk.AfterFunc(pol.Backoff(p.tries), p.try)
		return
	}
	if !p.spent {
		p.spent = true
		s.met.Counter("path_propagation_failed").Inc()
	}
	s.clk.AfterFunc(pathReassertInterval, p.reassert)
}

// reassert re-sends a message whose budget is spent, unless it has gone
// stale meanwhile.
func (p *pathSend) reassert() {
	s := p.s
	if s.ctx.Err() != nil || !s.pathCurrent(p.m) {
		return
	}
	s.met.Counter("path_reasserted").Inc()
	p.try()
}

// pathCurrent reports whether a path message is still worth re-sending. A
// CreatePath is while this server holds a record for its object: the
// object is in this subtree, so the ancestors should point here, and one
// holding a newer record refuses the message by PathT. Once the record is
// gone it is not, since a removed record leaves no PathT for an ancestor to
// refuse it by. A RemovePath always is: RemoveIf refuses it against any
// newer record.
func (s *Server) pathCurrent(m msg.Message) bool {
	cp, ok := m.(msg.CreatePath)
	if !ok {
		return true
	}
	if s.sightings != nil {
		_, ok = s.sightings.Registration(cp.OID)
	} else {
		_, ok = s.visitors.Get(cp.OID)
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
// against the peer. The reply itself is deliberately not awaited — fan-out
// handlers return their results out-of-band to the query origin, exactly
// like sendOrCount — so forward costs one in-flight entry until the ack or
// the sweep, nothing more. A non-nil error means the message was NOT handed
// to the network (open breaker, unknown destination, failed write): the
// destination is unreachable right now, which degraded queries translate
// into dark-cover accounting instead of waiting out a timeout.
func (s *Server) forward(to msg.NodeID, m msg.Message) error {
	ctx, cancel := s.clk.WithTimeout(context.Background(), s.opts.CallTimeout)
	defer cancel() // tracker keeps its own deadline; cancel only ends the slot wait
	if _, err := s.node.CallAsync(ctx, to, m); err != nil {
		s.met.Counter("send_errors").Inc()
		return err
	}
	return nil
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
