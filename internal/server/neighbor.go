package server

import (
	"context"
	"math"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

// anyOverlap is the overlap threshold a nearest-neighbor collection
// applies: it only needs to be positive, as any object whose position lies
// inside the window has a positive overlap degree, and the predicate then
// reduces to the accuracy test.
const anyOverlap = 1e-9

// handleNeighborQuery resolves a nearest-neighbor query (semantics of
// Section 3.2) at the entry server, branch-and-bound style over the
// distributed range-query machinery:
//
//  1. neighborQueryLocal walks this leaf's own sightings nearest-first. An
//     answer it proves local is returned as is; otherwise the distance d of
//     the first qualifying candidate it met is a bound: that object
//     qualifies, so the global nearest lies at most d from p.
//  2. One loop of collections starts at r = d, or without a bound at
//     R = (w+h)/8 of this leaf's service-area bounds. Each step collects the
//     square window of half-side r + nearQual + 1 around p and applies
//     core.SelectNearest to it. When the nearest lies within r, every
//     object closer than it, and all of nearObjSet, lies inside the window,
//     so the step's selection is the answer. Otherwise r grows — to the
//     nearest found, which bounds the answer as d does, or else doubles —
//     up to the root's extent, where the window holds everything.
//
// The +1 m margin keeps the window's area positive when the nearest sits
// exactly at p with nearQual 0: a zero-area window would give every
// candidate overlap degree 0 and filter the whole answer away. The paper
// defines the query's semantics but not its distributed resolution; this
// comment and neighborQueryLocal's are the specification of this
// concretisation.
func (s *Server) handleNeighborQuery(ctx context.Context, req msg.NeighborQueryReq) (msg.Message, error) {
	if !s.cfg.IsLeaf() {
		return nil, core.ErrBadRequest
	}
	// A non-finite p or parameter would make the search bound NaN or
	// infinite, and the loop below would never meet its stopping test.
	if !finite(req.P.X) || !finite(req.P.Y) || !finite(req.ReqAcc) || !finite(req.NearQual) || req.ReqAcc < 0 || req.NearQual < 0 {
		return nil, core.ErrBadRequest
	}
	s.met.Counter("neighbor_query_seen").Inc()

	// A window of half-side maxRadius around p covers the root area whole.
	root := s.rootArea.Bounds()
	maxRadius := math.Max(math.Max(req.P.X-root.Min.X, root.Max.X-req.P.X), math.Max(req.P.Y-root.Min.Y, root.Max.Y-req.P.Y))
	sa := s.cfg.SA.Bounds()
	first := (sa.Width() + sa.Height()) / 8
	if first <= 0 {
		first = maxRadius / 64
	}
	res, bound, ok := s.neighborQueryLocal(req, first)
	if ok {
		s.met.Counter("neighbor_query_local_fast").Inc()
		return res, nil
	}
	radius := first
	if bound >= 0 {
		s.met.Counter("neighbor_query_local_bound").Inc()
		radius = bound
	}

	// Every step is its own distributed range collection; a degraded step
	// taints the whole answer, so partiality and the unreachable set are
	// unioned across all of them. A partial "found" answer means the true
	// nearest could hide behind a dark leaf.
	partial := false
	var unreachable []msg.NodeID
	for {
		window := core.AreaFromRect(geo.RectAround(req.P, radius+req.NearQual+1))
		out, err := s.collectRange(ctx, window, req.ReqAcc, anyOverlap)
		if err != nil {
			return nil, err
		}
		partial = partial || out.partial
		unreachable = mergeUnreachable(unreachable, out.unreachable...)
		// The selection reads the parts where they lie and copies what it
		// keeps, the local one still in the scan's pooled buffer.
		var partsBuf [16][]core.Entry
		sel := core.SelectNearest(req.P, req.ReqAcc, req.NearQual, append(append(partsBuf[:0], out.local), out.parts...)...)
		out.release()
		nearest := math.Inf(1)
		if sel.Found {
			nearest = sel.Nearest.LD.Pos.Dist(req.P)
		}
		if nearest <= radius || radius >= maxRadius {
			if partial {
				s.met.Counter("wire_degraded_queries").Inc()
			}
			return msg.NeighborQueryRes{
				Found:             sel.Found,
				Nearest:           sel.Nearest,
				Near:              sel.Near,
				GuaranteedMinDist: sel.GuaranteedMinDist,
				Partial:           partial,
				Unreachable:       unreachable,
			}, nil
		}
		if sel.Found {
			radius = nearest
		} else {
			radius = math.Max(radius*2, first)
		}
		radius = math.Min(radius, maxRadius)
		s.met.Counter("neighbor_query_expand").Inc()
	}
}

// neighborQueryLocal resolves a nearest-neighbor query without touching the
// network when the answer is provably local. It streams this leaf's
// sightings nearest-first to the first that qualifies under the same
// predicate a collection window applies, its distance d. Every object that
// can influence the answer then has a recorded position within d + nearQual
// of p; if that collection disc — enlarged by reqAcc exactly like a
// forwarded window would be — lies inside this leaf's service area, then
// any such object is agented here (objects are stored by position), so the
// selection rule runs on purely local candidates (ok).
//
// Otherwise d is returned as the bound the distributed loop starts from, or
// -1 without a qualifying candidate. The walk stops after 64 candidates
// examined, and past radius at the first candidate whose disc escapes this
// leaf: every later one is farther, so it could neither bound the search
// within radius nor give a local answer.
func (s *Server) neighborQueryLocal(req msg.NeighborQueryReq, radius float64) (res msg.Message, bound float64, ok bool) {
	sa := s.cfg.SA.Bounds()
	// Cap the cursor walk: a store full of non-qualifying sightings should
	// fall back to the distributed search, not be streamed end to end.
	const scanCap = 64
	bound = -1
	examined := 0
	sc := s.newRangeScan()
	defer sc.release()
	s.sightings.NearestEntries(req.P, func(id core.OID, pos geo.Point, acc, dist float64) bool {
		if dist > radius && !sa.ContainsRect(geo.RectAround(req.P, dist).Enlarge(req.ReqAcc)) {
			return false
		}
		// The qualification window only needs to strictly contain the
		// candidate's position: overlap is then positive and the
		// predicate reduces to the accuracy test, as in a collection.
		sc.pred.Prepare(core.AreaFromRect(geo.RectAround(req.P, dist+1)), req.ReqAcc, anyOverlap)
		if _, ok := sc.entryIfQualifies(id, pos, acc); ok {
			bound = dist
			return false
		}
		examined++
		return examined < scanCap
	})
	if bound < 0 {
		return nil, -1, false
	}
	window := core.AreaFromRect(geo.RectAround(req.P, bound+req.NearQual+1))
	if !sa.ContainsRect(window.Bounds().Enlarge(req.ReqAcc)) {
		return nil, bound, false
	}
	// SelectNearest copies what it keeps, so the candidates can stay in
	// the scan's pooled buffer.
	sc.run(window, req.ReqAcc, anyOverlap)
	sel := core.SelectNearest(req.P, req.ReqAcc, req.NearQual, sc.out)
	return msg.NeighborQueryRes{
		Found:             sel.Found,
		Nearest:           sel.Nearest,
		Near:              sel.Near,
		GuaranteedMinDist: sel.GuaranteedMinDist,
	}, bound, true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
