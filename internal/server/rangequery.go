package server

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"locsvc/internal/clock"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/spatial"
	"locsvc/internal/store"
	"locsvc/internal/transport"
)

// coverEpsilon is the relative tolerance when comparing collected coverage
// against the expected query-area measure.
const coverEpsilon = 1e-6

// handleRangeQuery implements the entry-server half of Algorithm 6-5. The
// entry server contributes its own partial result, forwards the query
// upwards if the area extends beyond its service area, and collects the
// partial results of all involved leaf servers until the query area is
// fully covered (tallied by area measure — sibling service areas never
// overlap, so partial covers add up exactly).
func (s *Server) handleRangeQuery(ctx context.Context, req msg.RangeQueryReq) (msg.Message, error) {
	if !s.cfg.IsLeaf() {
		return nil, core.ErrBadRequest
	}
	if req.Area.Empty() || req.ReqOverlap <= 0 || req.ReqOverlap > 1 || req.ReqAcc < 0 {
		return nil, core.ErrBadRequest
	}
	s.met.Counter("range_query_seen").Inc()

	out, err := s.collectRange(ctx, req.Area, req.ReqAcc, req.ReqOverlap)
	if err != nil {
		return nil, err
	}
	objs := joinEntries(out.local, out.parts)
	out.release()
	if out.partial {
		s.met.Counter("wire_degraded_queries").Inc()
	}
	return msg.RangeQueryRes{
		Objs:        objs,
		Servers:     out.servers,
		Hops:        out.hops,
		Partial:     out.partial,
		Unreachable: out.unreachable,
	}, nil
}

// rangeOutcome is the result of one distributed range collection, in
// parts: local is the entry leaf's own contribution, still in the pooled
// buffer of scan (nil when the leaf holds none of the area) and valid
// until release, parts the remote partial results. partial marks a
// degraded answer: some of the query area is owned by servers that were
// unreachable (or never answered before the query timeout), so the
// result covers only the live part of the hierarchy — a deliberately
// different statement than "no objects there".
type rangeOutcome struct {
	scan        *rangeScan
	local       []core.Entry
	parts       [][]core.Entry
	servers     int
	hops        int
	partial     bool
	unreachable []msg.NodeID
}

// release returns the local scan to its pool.
func (o *rangeOutcome) release() {
	if o.scan != nil {
		o.scan.release()
		o.scan, o.local = nil, nil
	}
}

// mergeUnreachable appends ids not already present (fan-out sets are a
// handful of nodes, so linear dedupe is fine).
func mergeUnreachable(dst []msg.NodeID, ids ...msg.NodeID) []msg.NodeID {
	for _, id := range ids {
		dup := false
		for _, d := range dst {
			if d == id {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, id)
		}
	}
	return dst
}

// collectRange runs the distributed range query and returns the qualifying
// objects, the number of contributing leaf servers and the maximum hop
// count observed. It is shared by range and nearest-neighbor processing;
// the caller releases the outcome.
//
// Degraded mode: fan-out messages travel as tracked one-ways (forward), so
// an unreachable destination — open breaker, dead address — is detected
// immediately instead of waited out. Its share of the query area is tallied
// as "dark cover": area that can never be covered by a partial result. The
// collection loop terminates as soon as live cover plus dark cover accounts
// for the whole query, so a query over a half-dark hierarchy returns the
// reachable results promptly with partial set, rather than eating the full
// query timeout.
func (s *Server) collectRange(ctx context.Context, area core.Area, reqAcc, reqOverlap float64) (rangeOutcome, error) {
	enlarged := area.Bounds().Enlarge(reqAcc)

	// The expected coverage is the part of the query area inside the
	// root service area; parts outside the LS's responsibility can never
	// be covered by any leaf.
	expected := area.Vertices.IntersectRectArea(s.rootArea.Bounds())

	var out rangeOutcome
	covered := 0.0
	darkCover := 0.0

	// Local contribution (Algorithm 6-5, lines 3-7). The qualifying
	// entries stay in the scan's pooled buffer until the caller reads or
	// joins them.
	if enlarged.Intersects(s.cfg.SA.Bounds()) {
		out.scan = s.newRangeScan()
		out.scan.run(area, reqAcc, reqOverlap)
		out.local = out.scan.out
		covered += area.Vertices.IntersectRectArea(s.cfg.SA.Bounds())
		out.servers++
	}
	if covered+coverEpsilon*expected >= expected || expected == 0 {
		s.met.Counter("range_query_local").Inc()
		return out, nil
	}

	// Part of the area lies outside this server's responsibility: the
	// query must be forwarded (lines 8-13).
	op := s.pend.open()
	defer s.pend.close(op)
	// One boxed message serves every destination: a receiver copies it.
	var fwd msg.Message = msg.RangeQueryFwd{
		Area: area, ReqAcc: reqAcc, ReqOverlap: reqOverlap,
		Origin: msg.Origin{Node: s.ID(), OpID: op.id}, Hops: 1,
	}
	// sentTo are the servers the query went to from here: the parent, or
	// on the cache shortcut the leaves themselves.
	var sentBuf [8]msg.NodeID
	sentTo := sentBuf[:0]

	// The entry server itself already covers `covered` of the query; the
	// cache only needs to account for the remainder.
	var leafBuf [8]msg.NodeID
	if leaves, ok := s.caches.leavesCovering(leafBuf[:0], area, enlarged, expected-covered, s.ID()); ok {
		// Cache shortcut (Section 6.5): contact the leaf servers for
		// the area directly, without traversing the hierarchy.
		s.met.Counter("range_query_cache_direct").Inc()
		for _, leaf := range leaves {
			if leaf == s.ID() {
				continue
			}
			if _, err := s.forward(leaf, fwd); err != nil {
				out.unreachable = mergeUnreachable(out.unreachable, leaf)
				if a, known := s.caches.areaOf(leaf); known {
					darkCover += area.Vertices.IntersectRectArea(a.Bounds())
				}
				continue
			}
			sentTo = append(sentTo, leaf)
		}
		if len(sentTo) == 0 {
			out.partial = len(out.unreachable) > 0
			return out, nil
		}
	} else {
		parent := s.parent()
		if parent == "" {
			// Single-server deployment: our own contribution is all
			// there is.
			return out, nil
		}
		if _, err := s.forward(parent, fwd); err != nil {
			// The route into the rest of the hierarchy is down:
			// everything beyond this leaf is dark right now.
			out.partial = true
			out.unreachable = mergeUnreachable(out.unreachable, parent)
			return out, nil
		}
		sentTo = append(sentTo, parent)
	}

	// Collection loop (lines 10-13): receive partial results until live
	// plus dark cover accounts for the whole area.
	expired, timer := clock.After(s.clk, s.opts.QueryTimeout)
	defer timer.Stop()
	var (
		answeredBuf [8]msg.LeafInfo
		answered    = answeredBuf[:0] // the leaves out.parts came from
		silent      []silentChild     // children reported for a missing acknowledgement
	)
	for covered+darkCover+coverEpsilon*expected < expected {
		m, err := s.pend.await(ctx, op, expired)
		if err != nil {
			out.release()
			return rangeOutcome{}, err
		}
		if m == nil {
			s.met.Counter("range_query_timeout").Inc()
			// Return what we have: partial answers beat none under UDP
			// loss. A lost partial result names nobody, so the servers
			// the query went to that have not answered are named: the
			// shortfall lies behind them.
			out.partial = true
			for _, id := range sentTo {
				if !slices.ContainsFunc(answered, func(l msg.LeafInfo) bool { return l.ID == id }) {
					out.unreachable = mergeUnreachable(out.unreachable, id)
				}
			}
			return out, nil
		}
		sub, ok := m.(msg.RangeQuerySubRes)
		if !ok {
			continue
		}
		if sub.Hops > out.hops {
			out.hops = sub.Hops
		}
		switch {
		case len(sub.Unreachable) == 0:
			// A leaf's partial result. A duplicated datagram delivers it
			// twice: its cover and entries count once.
			if slices.ContainsFunc(answered, func(l msg.LeafInfo) bool { return l.ID == sub.Leaf.ID }) {
				s.met.Counter("range_partial_duplicate").Inc()
				continue
			}
			// A silent child holding the leaf lost only its
			// acknowledgement: its cover must not count twice.
			silent = slices.DeleteFunc(silent, func(c silentChild) bool {
				if !c.holds(sub.Leaf) {
					return false
				}
				darkCover -= c.size
				out.unreachable = slices.DeleteFunc(out.unreachable, func(id msg.NodeID) bool { return id == c.ID })
				return true
			})
			answered = append(answered, sub.Leaf)
			out.parts = append(out.parts, sub.Objs)
			covered += sub.CoveredSize
			out.servers++
		case sub.Leaf.Valid():
			c := silentChild{sub.Leaf, sub.UnreachableSize}
			if slices.ContainsFunc(answered, c.holds) || slices.ContainsFunc(silent, func(o silentChild) bool { return o.ID == c.ID }) {
				continue
			}
			silent = append(silent, c)
			darkCover += c.size
			out.unreachable = mergeUnreachable(out.unreachable, c.ID)
		default:
			darkCover += sub.UnreachableSize
			out.unreachable = mergeUnreachable(out.unreachable, sub.Unreachable...)
		}
	}
	if darkCover > 0 || len(out.unreachable) > 0 {
		out.partial = true
	}
	s.met.Counter("range_query_remote").Inc()
	return out, nil
}

// reportIfSilent reports child to the query's entry server as unreachable
// should it never acknowledge its leg: a dark leaf or a crashed or
// partitioned subtree is then named, with its service area, as soon as the
// leg's call times out, and the entry's cover tally closes instead of
// waiting out the query timeout. The child may have lost only its
// acknowledgement; the entry server voids the report when a leaf inside
// the child's area answers.
func (s *Server) reportIfSilent(pc *transport.PendingCall, child store.ChildRecord, req msg.RangeQueryFwd) {
	pc.Then(func(ack msg.Message) {
		if msg.AsError(ack) == nil {
			return
		}
		id := msg.NodeID(child.ID)
		s.respondToOrigin(req.Origin, msg.RangeQuerySubRes{
			OpID:            req.Origin.OpID,
			Leaf:            msg.LeafInfo{ID: id, Area: child.SA},
			Hops:            req.Hops,
			Unreachable:     []msg.NodeID{id},
			UnreachableSize: req.Area.Vertices.IntersectRectArea(child.SA.Bounds()),
		})
	})
}

// silentChild is a child a coordinator reported for a missing
// acknowledgement, as the entry server counts it.
type silentChild struct {
	msg.LeafInfo
	size float64
}

// holds reports whether leaf lies in the child's subtree.
func (c silentChild) holds(leaf msg.LeafInfo) bool {
	return leaf.ID == c.ID || c.Area.Contains(leaf.Area.Bounds().Center())
}

// joinEntries concatenates the local result and the remote partial results
// with one exact-size allocation. local is a pooled scan buffer and is
// always copied; a remote part holding the whole answer is adopted as is.
func joinEntries(local []core.Entry, parts [][]core.Entry) []core.Entry {
	total := len(local)
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	if len(local) == 0 {
		for _, p := range parts {
			if len(p) == total {
				return p
			}
		}
	}
	out := make([]core.Entry, 0, total)
	out = append(out, local...)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// localRangeResult evaluates the range predicate against this leaf's
// sightingDB using the spatial index (Algorithm 6-5 lines 4-5); see
// rangeScan. The result is one allocation of just the size needed (nil
// when nothing qualifies).
func (s *Server) localRangeResult(area core.Area, reqAcc, reqOverlap float64) []core.Entry {
	sc := s.newRangeScan()
	defer sc.release()
	sc.run(area, reqAcc, reqOverlap)
	return joinEntries(sc.out, nil)
}

// rangeScan is the state of one leaf-side candidate scan — the prepared
// predicate, the qualifying entries so far and the outcome tallies —
// pooled so that a query allocates nothing but its result.
//
// The scan searches the predicate's filter rectangle
// (core.RangePredicate.Bounds) — the reqAcc-enlarged bounds below a
// reqOverlap of 0.5, where an object whose position lies outside the area
// can still overlap it enough (Section 3.2), the area's bounds from 0.5
// on — and takes the store's candidates a bucket at a time, in one loop
// per bucket (bucket). A bucket that lies inside the filter rectangle and
// deep inside the area (core.RangePredicate.Interior) qualifies whole: an
// item costs only the accuracy tests. Every other bucket goes item by item
// through the full predicate (entryIfQualifies).
//
// The covering-entry invariant the scan relies on: a candidate arrives as
// (id, position, accuracy) read off the sighting store's index entry, and
// the accuracy is the OfferedAcc of the object's registration, which the
// store keeps under the same shard lock and alone writes onto the entry
// (see "Covering index entries" in the store package comment). An entry
// without a registration carries store.AccUnknown and is not a registered
// visitor of this leaf, so it never qualifies.
type rangeScan struct {
	s      *Server
	pred   core.RangePredicate
	reqAcc float64
	filter geo.Rect // pred.Bounds(), the rectangle searched
	out    []core.Entry

	candidates, qualified, exact, interior int64
}

var rangeScanPool = sync.Pool{New: func() any { return new(rangeScan) }}

func (s *Server) newRangeScan() *rangeScan {
	sc := rangeScanPool.Get().(*rangeScan)
	sc.s = s
	return sc
}

// run evaluates the range predicate over this leaf's candidates inside
// the prepared predicate's filter rectangle, appending the qualifying
// entries to out.
func (sc *rangeScan) run(area core.Area, reqAcc, reqOverlap float64) {
	sc.pred.Prepare(area, reqAcc, reqOverlap)
	sc.reqAcc, sc.filter = reqAcc, sc.pred.Bounds()
	sc.s.sightings.SearchBuckets(sc.filter, sc.bucket)
}

// bucket qualifies one bucket of candidates (see rangeScan). Items of a
// bucket that straddles the filter rectangle's border are candidates only
// inside it.
func (sc *rangeScan) bucket(items []spatial.Item, sub geo.Rect, inside bool) bool {
	if inside && sc.pred.Interior(sub) {
		n := len(sc.out)
		for i := range items {
			it := &items[i]
			if it.Acc == store.AccUnknown || it.Acc > sc.reqAcc {
				continue
			}
			sc.out = append(sc.out, core.Entry{OID: it.ID, LD: core.LocationDescriptor{Pos: it.Pos, Acc: it.Acc}})
		}
		sc.candidates += int64(len(items))
		sc.interior += int64(len(items))
		sc.qualified += int64(len(sc.out) - n)
		return true
	}
	for i := range items {
		it := &items[i]
		if !inside && !sc.filter.ContainsClosed(it.Pos) {
			continue
		}
		if e, ok := sc.entryIfQualifies(it.ID, it.Pos, it.Acc); ok {
			sc.out = append(sc.out, e)
		}
	}
	return true
}

// release books the scan's tallies on the leaf's counters and returns it
// to the pool; out must not be used afterwards.
func (sc *rangeScan) release() {
	m := &sc.s.rangeMet
	m.candidates.Add(sc.candidates)
	m.qualified.Add(sc.qualified)
	m.exact.Add(sc.exact)
	m.interior.Add(sc.interior)
	clear(sc.out) // drop the object-id strings
	*sc = rangeScan{pred: sc.pred, out: sc.out[:0]}
	rangeScanPool.Put(sc)
}

// entryIfQualifies applies the scan's prepared predicate — the full range
// predicate of Section 3.2 — to one index entry, returning the wire entry
// when the object qualifies. It is shared by the range-query leaf path and
// the nearest-neighbor local fast path, so both apply identical accuracy
// and overlap semantics.
func (sc *rangeScan) entryIfQualifies(id core.OID, pos geo.Point, acc float64) (core.Entry, bool) {
	sc.candidates++
	if acc == store.AccUnknown {
		return core.Entry{}, false
	}
	ld := core.LocationDescriptor{Pos: pos, Acc: acc}
	ok, exact := sc.pred.Qualifies(ld)
	if exact {
		sc.exact++
	}
	if !ok {
		return core.Entry{}, false
	}
	sc.qualified++
	return core.Entry{OID: id, LD: ld}, true
}

// rangeCounters are the leaf's range-evaluation outcome counters, resolved
// once so a query books them without registry lookups: candidates the
// index search delivered, how many qualified and how many needed the exact
// overlap arithmetic. interior, the candidates of buckets qualified whole,
// is kept beside them for benchmarks and not exported.
type rangeCounters struct {
	candidates, qualified, exact *metrics.Counter
	interior                     atomic.Int64
}

func newRangeCounters(met *metrics.Registry) rangeCounters {
	return rangeCounters{
		candidates: met.Counter("range_candidates"),
		qualified:  met.Counter("range_qualified"),
		exact:      met.Counter("range_exact_overlap"),
	}
}

// handleRangeQueryFwd implements the forwarding half of Algorithm 6-5:
// climb until the receiver's service area covers the (enlarged) query area
// entirely, fan out to every overlapping child, and have each involved leaf
// send its partial result directly to the entry server.
func (s *Server) handleRangeQueryFwd(from msg.NodeID, req msg.RangeQueryFwd) {
	req.Hops++
	enlarged := req.Area.Bounds().Enlarge(req.ReqAcc)

	if s.cfg.IsLeaf() {
		// Lines 2-6: produce this leaf's partial result.
		if !enlarged.Intersects(s.cfg.SA.Bounds()) {
			// Possible under a slightly stale area cache: answer
			// with an empty cover so the entry server is not left
			// waiting for a contribution that cannot come.
			s.respondToOrigin(req.Origin, msg.RangeQuerySubRes{
				OpID: req.Origin.OpID, Leaf: s.leafInfo(), Hops: req.Hops,
			})
			return
		}
		objs := s.localRangeResult(req.Area, req.ReqAcc, req.ReqOverlap)
		s.respondToOrigin(req.Origin, msg.RangeQuerySubRes{
			OpID:        req.Origin.OpID,
			Objs:        objs,
			CoveredSize: req.Area.Vertices.IntersectRectArea(s.cfg.SA.Bounds()),
			Leaf:        s.leafInfo(),
			Hops:        req.Hops,
		})
		return
	}

	// Non-leaf (lines 7-15): forward downwards to overlapping children
	// (except the one the query came from) … One boxed message serves
	// every destination.
	var fwd msg.Message = req
	var failed []msg.NodeID
	failedCover := 0.0
	for _, child := range s.cfg.Children {
		if msg.NodeID(child.ID) == from {
			continue
		}
		if enlarged.Intersects(child.SA.Bounds()) {
			pc, err := s.forward(msg.NodeID(child.ID), fwd)
			if err != nil {
				// Unreachable child: its whole subtree's share of
				// the query is dark. Tell the entry server so its
				// cover tally closes instead of timing out.
				failed = append(failed, msg.NodeID(child.ID))
				failedCover += req.Area.Vertices.IntersectRectArea(child.SA.Bounds())
				continue
			}
			s.reportIfSilent(pc, child, req)
		}
	}
	// … and upwards if part of the area lies outside our service area
	// (and the query did not come from above).
	outside := !s.cfg.SA.Bounds().ContainsRect(enlarged)
	if parent := s.parent(); outside && parent != "" && from != parent {
		if _, err := s.forward(parent, fwd); err != nil {
			// Everything outside this subtree is dark.
			failed = append(failed, parent)
			failedCover += req.Area.Vertices.IntersectRectArea(s.rootArea.Bounds()) -
				req.Area.Vertices.IntersectRectArea(s.cfg.SA.Bounds())
		}
	}
	if len(failed) > 0 {
		s.respondToOrigin(req.Origin, msg.RangeQuerySubRes{
			OpID:            req.Origin.OpID,
			Hops:            req.Hops,
			Unreachable:     failed,
			UnreachableSize: failedCover,
		})
	}
}
