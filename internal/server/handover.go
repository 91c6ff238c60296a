package server

import (
	"context"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/msg"
	"locsvc/internal/store"
)

// handleUpdate implements Algorithm 6-2 (processing of position updates) at
// the object's agent. If the sighting stays inside the service area the
// sightingDB is updated in place; otherwise a handover transfers the
// tracking responsibility and the reply tells the object its new agent.
func (s *Server) handleUpdate(ctx context.Context, from msg.NodeID, req msg.UpdateReq) (msg.Message, error) {
	if !s.cfg.IsLeaf() {
		return nil, core.ErrBadRequest
	}
	if err := req.S.Validate(); err != nil || req.Floor > req.Seq {
		return nil, core.ErrBadRequest
	}
	// A retry whose first attempt was applied — only the reply was lost —
	// gets the remembered reply without touching the stores. Critical
	// after a handover: re-applying would fail with not_found and strand
	// the client on the old agent. A late copy is not applied either.
	if reply, ok := s.dedupe.lookup(from, req.Seq, req.Floor); ok {
		s.writeMet.updatesDeduped.Inc()
		return reply, nil
	}
	reg, registered := s.sightings.Registration(req.S.OID)
	if !registered {
		return nil, core.ErrNotFound
	}

	if s.inArea(req.S.Pos) {
		// Line 8: plain in-area update, batched per shard by the
		// pipeline under concurrency. The store keeps the entry's
		// accuracy in line with the registration.
		s.pipe.Put(req.S)
		s.writeMet.updatesLocal.Inc()
		s.dedupe.rememberInArea(from, req.Seq, reg.OfferedAcc)
		return msg.UpdateRes{OfferedAcc: reg.OfferedAcc}, nil
	}

	// Lines 1-6: the object left the service area — hand over.
	s.writeMet.handoverInitiated.Inc()
	res, err := s.forwardHandover(ctx, msg.HandoverReq{
		S:        req.S,
		RegInfo:  reg.RegInfo,
		OldAgent: s.ID(),
	})
	if err != nil {
		return nil, err
	}
	// Remove the visitor and sighting records (lines 5-6).
	s.deregister(req.S.OID)
	// Inform the tracked object of its new agent (line 4). Failed
	// handovers are deliberately not remembered: a retry should attempt
	// the handover again, not replay the failure.
	ures := msg.UpdateRes{
		Moved:      true,
		NewAgent:   res.NewAgent,
		AgentInfo:  res.AgentInfo,
		OfferedAcc: res.OfferedAcc,
	}
	s.dedupe.remember(from, req.Seq, ures)
	return ures, nil
}

// forwardHandover starts handover processing: the request climbs the
// hierarchy as in Algorithm 6-3, so the path from the root reaches an agent
// at every moment. The leaf-to-leaf shortcut of Section 6.5 is not taken: it
// answered first and re-pointed the tree afterwards, leaving a window in
// which queries dead-ended, and no workload earned it.
func (s *Server) forwardHandover(ctx context.Context, req msg.HandoverReq) (msg.HandoverRes, error) {
	cctx, cancel := s.callCtx(ctx)
	defer cancel()

	parent := s.parent()
	if parent == "" {
		return msg.HandoverRes{}, core.ErrOutOfArea
	}
	resp, err := s.node.Call(cctx, parent, req)
	if err != nil {
		return msg.HandoverRes{}, err
	}
	hr, ok := resp.(msg.HandoverRes)
	if !ok {
		return msg.HandoverRes{}, core.ErrBadRequest
	}
	s.observeLeafInfo(hr.AgentInfo)
	return hr, nil
}

// handleHandover implements Algorithm 6-3 (handover processing). The
// request climbs until the sighting lies inside the receiver's service
// area, descends to the responsible leaf, and the response travels back
// along the same path while each hop fixes its forwarding references.
func (s *Server) handleHandover(ctx context.Context, from msg.NodeID, req msg.HandoverReq) (msg.Message, error) {
	req.Hops++
	s.writeMet.handoverSeen.Inc()

	if !s.inArea(req.S.Pos) {
		// Lines 16-20: forward upwards and drop our forwarding
		// reference once the response arrives.
		parent := s.parent()
		if parent == "" {
			return nil, core.ErrOutOfArea
		}
		cctx, cancel := s.callCtx(ctx)
		defer cancel()
		resp, err := s.node.Call(cctx, parent, req)
		if err != nil {
			return nil, err
		}
		hr, ok := resp.(msg.HandoverRes)
		if !ok {
			return nil, core.ErrBadRequest
		}
		if !s.cfg.IsLeaf() {
			if _, derr := s.visitors.Remove(req.S.OID); derr != nil {
				s.met.Counter("visitor_db_errors").Inc()
			}
		}
		hr.Hops++
		return hr, nil
	}

	if s.cfg.IsLeaf() {
		// Lines 2-7: this leaf becomes the new agent.
		return s.becomeAgent(req)
	}

	// Lines 8-15: forward downwards and create/reset the forwarding
	// reference to the child on the new path.
	child, ok := s.cfg.ChildFor(req.S.Pos)
	if !ok {
		return nil, core.ErrOutOfArea
	}
	cctx, cancel := s.callCtx(ctx)
	defer cancel()
	resp, err := s.node.Call(cctx, msg.NodeID(child.ID), req)
	if err != nil {
		return nil, err
	}
	hr, ok := resp.(msg.HandoverRes)
	if !ok {
		return nil, core.ErrBadRequest
	}
	if err := s.visitors.Put(store.VisitorRecord{OID: req.S.OID, ForwardRef: child.ID, PathT: req.S.T}); err != nil {
		s.met.Counter("visitor_db_errors").Inc()
	}
	hr.Hops++
	return hr, nil
}

// register installs sight's object's registration and sighting in one
// store operation (Algorithm 6-1 lines 6-11, 6-3 lines 3-7) and feeds the
// delta to the event engine.
func (s *Server) register(sight core.Sighting, ri core.RegInfo, offered float64) error {
	d, err := s.sightings.Register(sight, store.Registration{RegInfo: ri, OfferedAcc: offered, PathT: sight.T})
	if err != nil {
		s.met.Counter("visitor_db_errors").Inc()
		return err
	}
	s.enqueueDeltas([]store.Delta{d})
	return nil
}

// deregister removes id's registration and sighting in one store
// operation, feeds the delta to the event engine and returns the removed
// sighting's time; ok reports whether there was anything to remove.
func (s *Server) deregister(id core.OID) (sightT time.Time, ok bool) {
	d, sightT, ok, err := s.sightings.Deregister(id, false)
	if err != nil {
		s.met.Counter("visitor_db_errors").Inc()
	}
	if d.Op == store.DeltaRemove {
		s.enqueueDeltas([]store.Delta{d})
	}
	return sightT, ok
}

// becomeAgent installs the visitor and sighting records on the new agent
// (Algorithm 6-3 lines 3-7) and returns the handover response. The offered
// accuracy is recomputed from this leaf's achievable accuracy, as different
// leaves may sit on different sensor infrastructure.
func (s *Server) becomeAgent(req msg.HandoverReq) (msg.HandoverRes, error) {
	offered, _ := req.RegInfo.OfferedAcc(s.opts.AchievableAcc)
	if err := s.register(req.S, req.RegInfo, offered); err != nil {
		return msg.HandoverRes{}, err
	}
	s.writeMet.handoverAccepted.Inc()

	// If the accuracy this leaf can offer differs from the registered
	// desire, notify the registering instance (Section 3.1,
	// notifyAvailAcc).
	if offered > req.RegInfo.MinAcc || offered != req.RegInfo.DesAcc {
		if reg := req.RegInfo.Registrant; reg != "" && offered != req.RegInfo.DesAcc {
			s.sendOrCount(msg.NodeID(reg), msg.NotifyAvailAcc{OID: req.S.OID, OfferedAcc: offered})
		}
	}
	return msg.HandoverRes{
		NewAgent:   s.ID(),
		AgentInfo:  s.leafInfo(),
		OfferedAcc: offered,
		Hops:       req.Hops,
	}, nil
}
