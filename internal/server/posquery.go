package server

import (
	"context"

	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/msg"
)

// handlePosQuery implements the entry-server half of Algorithm 6-4: a
// client's position query is answered locally if this leaf is the object's
// agent; otherwise the query is forwarded up the hierarchy and the entry
// server waits for the agent's direct response.
//
// With warm caches (Section 6.5) two shortcuts apply before the tree is
// traversed: a cached position descriptor that is still accurate enough
// answers immediately, and a cached (object → agent) mapping turns the
// query into a single direct call.
func (s *Server) handlePosQuery(ctx context.Context, req msg.PosQueryReq) (msg.Message, error) {
	if !s.cfg.IsLeaf() {
		return nil, core.ErrBadRequest
	}
	s.met.Counter("pos_query_seen").Inc()

	// Local case (Algorithm 6-4, lines 1-4): this server stores the
	// visitor record.
	if res, _ := s.localDescriptor(req.OID); res.Found {
		s.met.Counter("pos_query_local").Inc()
		return res, nil
	}

	// Cache shortcut 1: position-descriptor cache.
	if ld, ok := s.caches.posFor(req.OID, req.AccBound, s.clk.Now()); ok {
		s.met.Counter("pos_query_cache_pos").Inc()
		return msg.PosQueryRes{Found: true, LD: ld}, nil
	}

	// Cache shortcut 2: (object → agent) cache.
	if agent, ok := s.caches.agentFor(req.OID); ok {
		cctx, cancel := s.callCtx(ctx)
		resp, err := s.node.Call(cctx, agent, msg.PosQueryDirect{OID: req.OID})
		cancel()
		if err == nil {
			if res, ok := resp.(msg.PosQueryRes); ok && res.Found {
				s.met.Counter("pos_query_cache_agent").Inc()
				s.rememberResponse(req.OID, res)
				res.Hops = 1
				return res, nil
			}
		}
		s.caches.invalidateAgent(req.OID)
		s.met.Counter("pos_query_cache_agent_miss").Inc()
	}

	// Remote case (lines 5-8): forward upwards, wait for the direct
	// response from the agent.
	parent := s.parent()
	if parent == "" {
		// Single-server deployment and the object is unknown.
		return nil, core.ErrNotFound
	}
	op := s.pend.open()
	defer s.pend.close(op)
	if _, err := s.forward(parent, msg.PosQueryFwd{
		OID:    req.OID,
		Origin: msg.Origin{Node: s.ID(), OpID: op.id},
		Hops:   1,
	}); err != nil {
		// The route into the hierarchy is down (open breaker, dead
		// address): answer degraded immediately — "can't know right
		// now", not "object does not exist".
		s.met.Counter("wire_degraded_queries").Inc()
		return msg.PosQueryRes{Found: false, Partial: true}, nil
	}
	// A stopped timer, not an unfired one left to run out: a query
	// answered in time releases it at once.
	expired, timer := clock.After(s.clk, s.opts.QueryTimeout)
	defer timer.Stop()
	m, err := s.pend.await(ctx, op, expired)
	if err != nil {
		return nil, err
	}
	if m == nil {
		s.met.Counter("pos_query_timeout").Inc()
		// Distinguishable from a definitive miss: the query never got an
		// answer, so the truth is unknown.
		s.met.Counter("wire_degraded_queries").Inc()
		return msg.PosQueryRes{Found: false, Partial: true}, nil
	}
	res, ok := m.(msg.PosQueryRes)
	if !ok {
		return nil, core.ErrBadRequest
	}
	if !res.Found {
		if res.Partial {
			// Some server on the path could not reach the agent: the
			// object may well exist behind the dark part.
			s.met.Counter("wire_degraded_queries").Inc()
			return res, nil
		}
		return nil, core.ErrNotFound
	}
	s.met.Counter("pos_query_remote").Inc()
	s.rememberResponse(req.OID, res)
	return res, nil
}

// rememberResponse feeds the agent, area and position caches from a query
// response.
func (s *Server) rememberResponse(oid core.OID, res msg.PosQueryRes) {
	s.caches.observeAgent(oid, res.Agent)
	s.observeLeafInfo(res.AgentInfo)
	s.caches.observePos(oid, res.LD, res.MaxSpeed, s.clk.Now())
}

// handlePosQueryDirect answers a cache-shortcut query at the agent.
func (s *Server) handlePosQueryDirect(req msg.PosQueryDirect) (msg.Message, error) {
	if !s.cfg.IsLeaf() {
		return nil, core.ErrBadRequest
	}
	if res, _ := s.localDescriptor(req.OID); res.Found {
		return res, nil
	}
	return nil, core.ErrNotFound
}

// localDescriptor builds a PosQueryRes from this leaf's own records, read
// in one store lookup; registered reports whether the object is registered
// here. A registered object whose sighting was lost (after a restart,
// before it re-reported) is not Found; the caller may retry after
// RestoreVisitors took effect.
func (s *Server) localDescriptor(oid core.OID) (res msg.PosQueryRes, registered bool) {
	reg, sight, registered, sighted := s.sightings.Lookup(oid)
	if !registered || !sighted {
		return msg.PosQueryRes{}, registered
	}
	return msg.PosQueryRes{
		Found: true,
		LD:    core.LocationDescriptor{Pos: sight.Pos, Acc: reg.OfferedAcc},
		Agent: s.ID(),
		AgentInfo: msg.LeafInfo{
			ID:   s.ID(),
			Area: s.cfg.SA,
		},
		MaxSpeed: reg.RegInfo.MaxSpeed,
	}, true
}

// maxFwdHops bounds position-query forwarding: far above any legitimate
// path length (2 × tree height + 1), it only triggers when a query bounces
// on a stale forwarding reference.
const maxFwdHops = 32

// handlePosQueryFwd implements the forwarding half of Algorithm 6-4:
// upwards until a forwarding reference is found, then down the forwarding
// path; the agent responds directly to the entry server.
func (s *Server) handlePosQueryFwd(from msg.NodeID, req msg.PosQueryFwd) {
	s.met.Counter("pos_fwd_seen").Inc()
	req.Hops++
	var child string
	ok := false
	if !s.cfg.IsLeaf() {
		child, ok = s.visitors.Forward(req.OID)
	} else if res, registered := s.localDescriptor(req.OID); registered {
		// Lines 1-5: this server is the agent; answer the entry server
		// directly.
		res.OpID, res.Hops = req.Origin.OpID, req.Hops
		s.respondToOrigin(req.Origin, res)
		return
	}
	switch {
	case ok && msg.NodeID(child) != from:
		if req.Hops > maxFwdHops {
			// A stale forwarding loop: give up quickly instead of
			// letting the entry server wait for its timeout.
			s.met.Counter("pos_fwd_ttl_exceeded").Inc()
			s.respondToOrigin(req.Origin, msg.PosQueryRes{OpID: req.Origin.OpID, Found: false, Hops: req.Hops})
			return
		}
		// Lines 6-7: follow the forwarding reference downwards.
		s.forwardPosQueryOr(msg.NodeID(child), req)
	default:
		if ok {
			// The child this record points to just forwarded the
			// query up, i.e. it found no record: ours is a stale
			// leftover (a path message that arrived after a later
			// handover moved the object elsewhere). The record is
			// kept and the query climbs on like one that found no
			// record; the hop TTL bounds the bouncing. A handover in
			// flight does not open this case: Algorithm 6-3
			// re-points each hop on the new branch before the old
			// branch lets go of its records, top-down.
			s.met.Counter("pos_fwd_bounced").Inc()
		}
		// Lines 8-9: no record; forward upwards.
		parent := s.parent()
		if parent == "" {
			// Root without a record to follow: the object is not
			// tracked.
			s.respondToOrigin(req.Origin, msg.PosQueryRes{OpID: req.Origin.OpID, Found: false, Hops: req.Hops})
			return
		}
		s.forwardPosQueryOr(parent, req)
	}
}

// forwardPosQueryOr relays a position query one hop as a tracked one-way.
// When the next hop is unreachable (open breaker, dead address), the entry
// server gets an immediate degraded "unknown" — Found false with Partial
// set — instead of waiting out its query timeout: the object may well exist
// behind the dark node, so this must stay distinguishable from a definitive
// not-found.
func (s *Server) forwardPosQueryOr(to msg.NodeID, req msg.PosQueryFwd) {
	if _, err := s.forward(to, req); err != nil {
		s.respondToOrigin(req.Origin, msg.PosQueryRes{
			OpID: req.Origin.OpID, Found: false, Partial: true, Hops: req.Hops,
		})
	}
}
