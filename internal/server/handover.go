package server

import (
	"context"

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
	if err := req.S.Validate(); err != nil {
		return nil, core.ErrBadRequest
	}
	// A standby never accepts writes — an update applied here would fork
	// the mirror from its primary. Redirect the client with the standard
	// moved reply; nothing is remembered in the dedupe window, so a retry
	// straddling a failover is re-answered by whoever is primary then.
	if r := s.repl; r != nil && !r.primary.Load() {
		s.writeMet.updatesRedirectedStandby.Inc()
		return msg.UpdateRes{
			Moved:     true,
			NewAgent:  r.peer,
			AgentInfo: msg.LeafInfo{ID: r.peer, Area: s.cfg.SA},
		}, nil
	}
	// A transport-level retry whose first attempt was applied — only the
	// reply was lost — gets the remembered reply without touching the
	// stores. Critical after a handover: re-applying would fail with
	// not_found against the departed record and strand the client on the
	// old agent.
	if reply, ok := s.dedupe.lookup(from, req.Seq); ok {
		s.writeMet.updatesDeduped.Inc()
		return reply, nil
	}
	accEpoch := s.accEpoch.Load()
	rec, registered := s.visitors.Get(req.S.OID)
	if !registered {
		return nil, core.ErrNotFound
	}

	if s.inArea(req.S.Pos) {
		// Line 8: plain in-area update, batched per shard by the
		// pipeline under concurrency.
		s.putSighting(req.S, rec.OfferedAcc, accEpoch)
		s.writeMet.updatesLocal.Inc()
		s.dedupe.rememberInArea(from, req.Seq, rec.OfferedAcc)
		return msg.UpdateRes{OfferedAcc: rec.OfferedAcc}, nil
	}

	// Lines 1-6: the object left the service area — hand over.
	s.writeMet.handoverInitiated.Inc()
	res, err := s.forwardHandover(ctx, msg.HandoverReq{
		S:        req.S,
		RegInfo:  rec.RegInfo,
		OldAgent: s.ID(),
	})
	if err != nil {
		return nil, err
	}
	// Remove the visitor and sighting records (lines 5-6).
	if d, ok := s.sightings.RemoveDelta(req.S.OID); ok {
		s.enqueueDeltas([]store.Delta{d})
	}
	if _, derr := s.visitors.Remove(req.S.OID); derr != nil {
		s.met.Counter("visitor_db_errors").Inc()
	}
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

// putSighting commits sight through the update pipeline and records acc on
// the sighting's index entry (see rangeScan for the invariant). acc is the
// OfferedAcc of the object's visitor record as the caller read or wrote it
// after loading epoch from accEpoch. If the epoch moved, an accuracy
// rewrite ran meanwhile: the accuracy handed down may predate it while the
// put landed after its re-annotation, so the entry is annotated again from
// the visitor record.
func (s *Server) putSighting(sight core.Sighting, acc float64, epoch uint64) {
	s.pipe.PutAcc(sight, acc)
	if s.accEpoch.Load() != epoch {
		s.refreshAcc(sight.OID)
	}
}

// visitorAccRewritten must follow every write (or removal) of a leaf's
// visitor record that is not followed by a putSighting for the object: it
// brings the accuracy on the sighting's index entry back in line.
func (s *Server) visitorAccRewritten(oid core.OID) {
	s.accEpoch.Add(1)
	s.refreshAcc(oid)
}

// refreshAcc annotates oid's index entry with its visitor record's current
// OfferedAcc (unknown when there is none), again if another rewrite landed
// while it did — the later writer of the two then wins with the later
// value.
func (s *Server) refreshAcc(oid core.OID) {
	for {
		epoch := s.accEpoch.Load()
		acc := float64(store.AccUnknown)
		if rec, ok := s.visitors.Get(oid); ok {
			acc = rec.OfferedAcc
		}
		s.sightings.SetAcc(oid, acc)
		if s.accEpoch.Load() == epoch {
			return
		}
	}
}

// forwardHandover starts handover processing: the request climbs the
// hierarchy as in Algorithm 6-3, so the path from the root reaches an agent
// at every moment. The leaf-to-leaf shortcut of Section 6.5 is not taken: it
// answered first and re-pointed the tree afterwards, leaving a window in
// which queries dead-ended, and no workload earned it.
func (s *Server) forwardHandover(ctx context.Context, req msg.HandoverReq) (msg.HandoverRes, error) {
	cctx, cancel := s.callCtx(ctx)
	defer cancel()

	parent := s.parentForOID(req.S.OID)
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
		parent := s.parentForOID(req.S.OID)
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
		if _, derr := s.visitors.Remove(req.S.OID); derr != nil {
			s.met.Counter("visitor_db_errors").Inc()
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
	child, ok := s.childFor(req.S.Pos)
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

// becomeAgent installs the visitor and sighting records on the new agent
// (Algorithm 6-3 lines 3-7) and returns the handover response. The offered
// accuracy is recomputed from this leaf's achievable accuracy, as different
// leaves may sit on different sensor infrastructure.
func (s *Server) becomeAgent(req msg.HandoverReq) (msg.HandoverRes, error) {
	offered, _ := req.RegInfo.OfferedAcc(s.opts.AchievableAcc)
	rec := store.VisitorRecord{
		OID:        req.S.OID,
		OfferedAcc: offered,
		RegInfo:    req.RegInfo,
		PathT:      req.S.T,
	}
	accEpoch := s.accEpoch.Load()
	if err := s.visitors.Put(rec); err != nil {
		s.met.Counter("visitor_db_errors").Inc()
		return msg.HandoverRes{}, err
	}
	s.putSighting(req.S, offered, accEpoch)
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
