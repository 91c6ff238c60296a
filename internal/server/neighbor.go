package server

import (
	"context"
	"math"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

// handleNeighborQuery resolves a nearest-neighbor query (semantics of
// Section 3.2) at the entry server with an expanding-ring search built on
// the distributed range-query machinery:
//
//  1. Query a square window around p, doubling its radius until a candidate
//     whose recorded position lies within the window radius is found. Any
//     object outside the window is farther than the radius, so the nearest
//     candidate found this way is the global nearest.
//  2. Issue one final collection query of radius dist(nearest) + nearQual
//     to gather the nearObjSet, then apply core.SelectNearest for the exact
//     selection rule (accuracy filter, deterministic tie-break, guaranteed
//     minimum distance).
//
// The paper defines the query's semantics but not its distributed
// resolution; this comment and neighborQueryLocal's are the specification
// of this concretisation.
func (s *Server) handleNeighborQuery(ctx context.Context, req msg.NeighborQueryReq) (msg.Message, error) {
	if !s.cfg.IsLeaf() {
		return nil, core.ErrBadRequest
	}
	if req.ReqAcc < 0 || req.NearQual < 0 {
		return nil, core.ErrBadRequest
	}
	s.met.Counter("neighbor_query_seen").Inc()

	// Local fast path: stream this leaf's own sightings in increasing
	// distance order off the store's nearest-neighbor cursor machinery.
	// When the whole answer is provably local, the expanding-ring search
	// below — one window search per doubling, possibly fanning out over
	// the network — collapses into one cursor walk plus one collection
	// search.
	if res, ok := s.neighborQueryLocal(req); ok {
		s.met.Counter("neighbor_query_local_fast").Inc()
		return res, nil
	}

	rootBounds := s.rootArea.Bounds()
	maxRadius := rootBounds.Width() + rootBounds.Height() // covers everything from any p

	// The first ring's radius is (w+h)/8 of the entry leaf's service-area
	// bounds: a quarter of their mean side length.
	sa := s.cfg.SA.Bounds()
	radius := (sa.Width() + sa.Height()) / 8
	if radius <= 0 {
		radius = maxRadius / 64
	}

	// The overlap threshold only needs to be positive: any object whose
	// position lies inside the window has a positive overlap degree.
	const anyOverlap = 1e-9

	// Every ring is its own distributed range collection; a degraded ring
	// taints the whole answer, so partiality and the unreachable set are
	// unioned across all of them. A partial "found" answer means the true
	// nearest could hide behind a dark leaf.
	partial := false
	var unreachable []msg.NodeID
	finish := func(res msg.NeighborQueryRes) msg.NeighborQueryRes {
		res.Partial = partial
		res.Unreachable = unreachable
		if partial {
			s.met.Counter("wire_degraded_queries").Inc()
		}
		return res
	}

	var nearestDist float64
	found := false
	for {
		window := core.AreaFromRect(geo.RectAround(req.P, radius))
		out, err := s.collectRange(ctx, window, req.ReqAcc, anyOverlap)
		if err != nil {
			return nil, err
		}
		partial = partial || out.partial
		unreachable = mergeUnreachable(unreachable, out.unreachable...)
		for _, e := range out.objs {
			d := e.LD.Pos.Dist(req.P)
			if d <= radius && (!found || d < nearestDist) {
				nearestDist = d
				found = true
			}
		}
		if found {
			break
		}
		if radius >= maxRadius {
			// The whole service area has been searched.
			return finish(msg.NeighborQueryRes{Found: false}), nil
		}
		radius = math.Min(radius*2, maxRadius)
		s.met.Counter("neighbor_query_expand").Inc()
	}

	// Collection ring: every object that can appear in nearObjSet has a
	// recorded position within nearestDist + nearQual of p. The +1 m
	// margin keeps the window's area positive when the nearest candidate
	// sits exactly at p with nearQual 0 — a zero-area window would give
	// every candidate overlap degree 0 and filter the whole answer away
	// (SelectNearest applies the exact rule to the superset).
	collectR := nearestDist + req.NearQual + 1
	window := core.AreaFromRect(geo.RectAround(req.P, collectR))
	out, err := s.collectRange(ctx, window, req.ReqAcc, anyOverlap)
	if err != nil {
		return nil, err
	}
	partial = partial || out.partial
	unreachable = mergeUnreachable(unreachable, out.unreachable...)
	res := core.SelectNearest(out.objs, req.P, req.ReqAcc, req.NearQual)
	if !res.Found {
		return finish(msg.NeighborQueryRes{Found: false}), nil
	}
	return finish(msg.NeighborQueryRes{
		Found:             true,
		Nearest:           res.Nearest,
		Near:              res.Near,
		GuaranteedMinDist: res.GuaranteedMinDist,
	}), nil
}

// neighborQueryLocal resolves a nearest-neighbor query without touching the
// network when the answer is provably local. It streams this leaf's
// sightings nearest-first until one qualifies under the same predicate the
// distributed window search applies. With the nearest qualifying candidate
// at distance d, every object that can influence the answer has a recorded
// position within d + nearQual of p; if that collection disc — enlarged by
// reqAcc exactly like a forwarded window would be — lies inside this leaf's
// service area, then any such object is agented here (objects are stored by
// position), so the distributed phases cannot contribute anything further
// and the selection rule runs on purely local candidates. Queries near a
// service-area border fall back to the expanding-ring search (ok == false).
func (s *Server) neighborQueryLocal(req msg.NeighborQueryReq) (msg.Message, bool) {
	sa := s.cfg.SA.Bounds()
	const anyOverlap = 1e-9
	// Cap the cursor walk: a store full of non-qualifying sightings should
	// fall back to the distributed search, not be streamed end to end.
	const scanCap = 64
	nearestDist := -1.0
	examined := 0
	sc := s.newRangeScan()
	defer sc.release()
	s.sightings.NearestEntries(req.P, func(id core.OID, pos geo.Point, acc, dist float64) bool {
		if !sa.ContainsRect(geo.RectAround(req.P, dist).Enlarge(req.ReqAcc)) {
			// The candidate disc already escapes this leaf, and every
			// later candidate is farther still: locality is unprovable.
			return false
		}
		// The qualification window only needs to strictly contain the
		// candidate's position: overlap is then positive and the
		// predicate reduces to the accuracy test, exactly as the
		// expanding ring converges to.
		sc.pred.Prepare(core.AreaFromRect(geo.RectAround(req.P, dist+1)), req.ReqAcc, anyOverlap)
		if _, ok := sc.entryIfQualifies(id, pos, acc); ok {
			nearestDist = dist
			return false
		}
		examined++
		return examined < scanCap
	})
	if nearestDist < 0 {
		// No local qualifying candidate; only the distributed search can
		// answer (or establish emptiness).
		return nil, false
	}
	// The +1 m margin keeps the window's area positive even when the
	// nearest candidate sits exactly at P with nearQual 0 (a query at an
	// object's recorded position): a zero-area window gives every
	// candidate overlap degree 0 and filters the entire answer away. The
	// margin only admits a superset; SelectNearest applies the exact
	// rule. Same reasoning as the +1 in the qualification window above.
	collectR := nearestDist + req.NearQual + 1
	window := core.AreaFromRect(geo.RectAround(req.P, collectR))
	enlarged := window.Bounds().Enlarge(req.ReqAcc)
	if !sa.ContainsRect(enlarged) {
		return nil, false
	}
	// SelectNearest copies what it keeps, so the candidates can stay in
	// the scan's pooled buffer.
	sc.run(window, req.ReqAcc, anyOverlap, enlarged)
	res := core.SelectNearest(sc.out, req.P, req.ReqAcc, req.NearQual)
	if !res.Found {
		return msg.NeighborQueryRes{Found: false}, true
	}
	return msg.NeighborQueryRes{
		Found:             true,
		Nearest:           res.Nearest,
		Near:              res.Near,
		GuaranteedMinDist: res.GuaranteedMinDist,
	}, true
}
